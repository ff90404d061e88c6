(* The four benchmark workloads, built step by step from the libraries'
   public functions so that each layer call can be timed from outside
   (see ledger.ml).

   A workload is a number of units — one run, or one chaos trial — and
   a [prepare] function that performs a unit's set-up and returns its
   runner.  Everything before the runner is set-up (topology, routing
   tables, network, traffic, detector deploy, fault plan and
   injection); the runner simulates, scores and checks the unit and
   adds its counters to the rep's accumulator.  All inputs derive from
   the workload seed. *)

open Netsim
module Ab = Topology.Abilene
module L = Ledger

type params = {
  horizon : float;       (* simulated seconds per run or trial *)
  attack_start : float;  (* simulated second the attacker turns on *)
  trials : int;          (* units per rep *)
  pairs : int;           (* CBR pairs (fwd-sprintlink) *)
}

(* What one rep accumulates over its units. *)
type acc = {
  traced : bool;
  with_probe : bool;  (* attach a telemetry probe (fwd-sprintlink) *)
  timed : bool;  (* an end-to-end rep: reference timings around slices *)
  mutable units : int;
  mutable failed : int;
  mutable setup_s : float;
  mutable run_s : float;  (* inside Net.run, reference timings excluded *)
  mutable events : int;
  mutable attacked : int;
  mutable implicated : int;
  mutable latencies : float list;  (* per attacked unit, censored at horizon *)
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable norm_slices : float list;  (* reference-normalized slice times, newest first *)
  mutable refs : float list;       (* reference timings between slices *)
  counts : (string, float) Hashtbl.t;  (* exact per-layer counters *)
  mutable oracle : (int * string) list;  (* chaos trial -> oracle report *)
}

let new_acc ?(with_probe = false) ?(timed = false) ~traced () =
  { traced; with_probe; timed; units = 0; failed = 0; setup_s = 0.0; run_s = 0.0; events = 0;
    attacked = 0; implicated = 0; latencies = []; minor_words = 0.0;
    promoted_words = 0.0; major_collections = 0; norm_slices = []; refs = [];
    counts = Hashtbl.create 64; oracle = [] }

let add acc name v =
  let old = Option.value ~default:0.0 (Hashtbl.find_opt acc.counts name) in
  Hashtbl.replace acc.counts name (old +. v)

let addi acc name n = add acc name (float_of_int n)
let count acc name = Option.value ~default:0.0 (Hashtbl.find_opt acc.counts name)

(* A sub-seed for input [k] of the workload seed. *)
let derive seed k = Hashtbl.hash (seed, k, 0x6265)

let record_detection acc p ~attacked first_alarm =
  if attacked then begin
    acc.attacked <- acc.attacked + 1;
    match first_alarm with
    | Some t ->
        acc.implicated <- acc.implicated + 1;
        acc.latencies <- (t -. p.attack_start) :: acc.latencies
    | None -> acc.latencies <- (p.horizon -. p.attack_start) :: acc.latencies
  end

(* --- simulation ------------------------------------------------------ *)

(* Time the reference computation (see reference.ml) in a timed rep. *)
let reference acc =
  if not acc.timed then nan
  else begin
    let r = Reference.measure () in
    acc.refs <- r :: acc.refs;
    r
  end

(* [Net.run] to the horizon in [slice]-second slices, each timed (and,
   traced, its own span) and, in a timed rep, run between two reference
   timings.  Slicing the classic engine pops the same heap in the same
   order, so the run is the same event for event; the slice times let
   the end-to-end estimate compare the same slice across reps, and the
   reference timings around a slice normalize it to the host's speed
   at the time. *)
let run_net acc ~slice ~horizon net =
  let e0 = Net.events_processed net in
  let w0 = Gc.minor_words () in
  let g0 = Gc.quick_stat () in
  let before = ref (reference acc) in
  L.span "netsim.run" (fun () ->
      let rec go t =
        let t' = Float.min horizon (t +. slice) in
        let s0 = L.clock () in
        L.span "netsim.slice" (fun () -> Net.run ~until:t' net);
        let d = L.clock () -. s0 in
        let after = reference acc in
        acc.run_s <- acc.run_s +. d;
        if acc.timed then
          acc.norm_slices <-
            (d *. Reference.nominal_s /. ((!before +. after) /. 2.0)) :: acc.norm_slices;
        before := after;
        Gcpause.poll ();
        if t' < horizon then go t'
      in
      go 0.0);
  let g1 = Gc.quick_stat () in
  acc.minor_words <- acc.minor_words +. (Gc.minor_words () -. w0);
  acc.promoted_words <-
    acc.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  acc.major_collections <-
    acc.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  acc.events <- acc.events + (Net.events_processed net - e0);
  let pool = Net.pool_stats net in
  addi acc "pool.recycled" pool.Pool.recycled;
  addi acc "pool.fresh" pool.Pool.fresh

(* Counting listeners for the traced run: queue admissions and drops by
   cause, and malicious drops.  They observe the network, so they are
   never attached to a timed end-to-end run. *)
let listen acc net =
  if acc.traced then begin
    Net.subscribe_iface net (fun ev ->
        match ev.Net.kind with
        | Iface.Enqueued _ -> add acc "iface.enqueue" 1.0
        | Iface.Drop_congestion _ -> add acc "iface.drop_congestion" 1.0
        | Iface.Drop_red_early _ -> add acc "iface.drop_red_early" 1.0
        | _ -> ());
    Net.subscribe_router net (fun ev ->
        match ev.Net.kind with
        | Router.Malicious_drop _ -> add acc "router.malicious_drop" 1.0
        | _ -> ())
  end

(* --- packet conservation -------------------------------------------- *)

type sent = Exact of int | Between of int * int

(* sent = delivered + dropped + in flight, from the routers' and
   interfaces' public counters.  Originations are what routers received
   minus what links delivered to them; they must match what the sources
   report.  In flight is queued + on the wire + in router processing,
   and each part must be non-negative (processing is bounded by the
   pending events).  With a probe, its independently kept counters must
   agree with these. *)
let conservation acc ?probe ~sent net g =
  let n = Topology.Graph.size g in
  let rcv = ref 0 and fwd = ref 0 and dlv = ref 0 in
  for r = 0 to n - 1 do
    let rt = Net.router net r in
    rcv := !rcv + Router.received_packets rt;
    fwd := !fwd + Router.forwarded_packets rt;
    dlv := !dlv + Router.delivered_packets rt
  done;
  let tx = ref 0 and ldlv = ref 0 and idrop = ref 0 and backlog = ref 0 in
  List.iter
    (fun (l : Topology.Graph.link) ->
      match Net.iface net ~src:l.Topology.Graph.src ~dst:l.Topology.Graph.dst with
      | Some i ->
          tx := !tx + Iface.tx_packets i;
          ldlv := !ldlv + Iface.delivered_packets i;
          idrop := !idrop + Iface.dropped_packets i;
          backlog := !backlog + Iface.backlog i
      | None -> ())
    (Topology.Graph.links g);
  let originated = !rcv - !ldlv in
  let discarded = !rcv - !fwd - !dlv in
  let dropped = !idrop + discarded in
  let wire = !tx - !ldlv in
  let processing = !fwd - (!tx + !backlog + !idrop) in
  let in_flight = !backlog + wire + processing in
  addi acc "router.forwarded" !fwd;
  addi acc "router.delivered" !dlv;
  addi acc "iface.tx" !tx;
  addi acc "iface.dropped" dropped;
  addi acc "netsim.originated" originated;
  let fails = ref [] in
  let expect ok msg = if not ok then fails := msg :: !fails in
  (match sent with
  | Exact s ->
      expect (originated = s)
        (Printf.sprintf "sources sent %d, routers saw %d originations" s originated)
  | Between (lo, hi) ->
      expect (originated >= lo && originated <= hi)
        (Printf.sprintf "routers saw %d originations, sources imply [%d, %d]"
           originated lo hi));
  expect (discarded >= 0) "routers discarded a negative number of packets";
  expect (wire >= 0) "negative packet count on the wire";
  expect
    (processing >= 0 && processing <= Sim.pending (Net.sim net))
    (Printf.sprintf "%d packets in router processing, %d events pending"
       processing (Sim.pending (Net.sim net)));
  expect (originated = !dlv + dropped + in_flight) "sent <> delivered + dropped + in flight";
  (match probe with
  | Some probe ->
      let c = Probe.conservation probe in
      expect
        (c.Probe.total_injected = originated
        && c.Probe.total_delivered = !dlv
        && c.Probe.total_dropped = dropped
        && c.Probe.total_fragmented = 0
        && c.Probe.in_flight = in_flight)
        (Printf.sprintf
           "probe conservation (%d = %d + %d + %d) disagrees with counters \
            (%d = %d + %d + %d)"
           c.Probe.total_injected c.Probe.total_delivered c.Probe.total_dropped
           c.Probe.in_flight originated !dlv dropped in_flight)
  | None -> ());
  List.rev !fails

(* --- honest-conviction check ----------------------------------------- *)

(* No honest router is convicted: zero α-violations (alarms implicating
   no faulty router) and zero honest routers convicted by name. *)
let honest_failures (o : Faults.Oracle.outcome) =
  (if o.Faults.Oracle.alpha_violations > 0 then
     [ Printf.sprintf "%d alpha violations" o.Faults.Oracle.alpha_violations ]
   else [])
  @
  if o.Faults.Oracle.framed_honest > 0 then
    [ Printf.sprintf "%d honest routers framed" o.Faults.Oracle.framed_honest ]
  else []

(* The check must reject a fabricated conviction of honest router 4
   while router 2 is the attacker. *)
let self_test () =
  let framed : Probe.verdict =
    { Probe.time = 12.0; detector = "fatih"; subject = Some 4;
      suspects = [ 3; 4; 5 ]; confidence = None; alarm = true;
      detail = "fabricated" }
  in
  honest_failures (Faults.Oracle.score ~malicious:[ 2 ] [ framed ]) <> []

(* --- fwd-sprintlink --------------------------------------------------- *)

let distinct_pairs ~seed ~n count =
  let rng = Random.State.make [| seed; 0xf0d |] in
  let seen = Hashtbl.create count in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let s = Random.State.int rng n and d = Random.State.int rng n in
      if s = d || Hashtbl.mem seen (s, d) then go acc k
      else begin
        Hashtbl.add seen (s, d) ();
        go ((s, d) :: acc) (k - 1)
      end
  in
  go [] count

let fwd_prepare p ~seed acc _unit =
  let g = L.span "topology.generate" (fun () -> Topology.Generate.sprintlink_like ()) in
  let rt = L.span "topology.routing" (fun () -> Topology.Routing.compute g) in
  let net =
    L.span "netsim.build" (fun () ->
        let net = Net.create ~seed:(derive seed 1) g in
        Net.use_routing net rt;
        if acc.with_probe then Net.set_probe net (Some (Probe.create ()));
        net)
  in
  listen acc net;
  let flows =
    L.span "traffic.build" (fun () ->
        List.map
          (fun (src, dst) ->
            Flow.cbr net ~src ~dst ~rate_pps:100.0 ~size:500 ~start:0.0
              ~stop:p.horizon)
          (distinct_pairs ~seed:(derive seed 2) ~n:(Topology.Graph.size g) p.pairs))
  in
  fun () ->
    run_net acc ~slice:1.0 ~horizon:p.horizon net;
    L.span "check" (fun () ->
        let sent = List.fold_left (fun a f -> a + Flow.sent f) 0 flows in
        conservation acc ~sent:(Exact sent) net g)

(* --- fatih-abilene (Fig 5.7) ------------------------------------------ *)

let fatih_tau = 5.0

let abilene_pairs =
  [ (Ab.New_york, Ab.Sunnyvale); (Ab.Sunnyvale, Ab.New_york);
    (Ab.Chicago, Ab.Los_angeles); (Ab.Los_angeles, Ab.Chicago);
    (Ab.Washington_dc, Ab.Seattle); (Ab.Seattle, Ab.Washington_dc);
    (Ab.Atlanta, Ab.Denver); (Ab.Denver, Ab.Atlanta);
    (Ab.Indianapolis, Ab.Houston); (Ab.Houston, Ab.Indianapolis) ]

let fatih_counters acc fatih ~rounds =
  let segments = List.length (Core.Fatih.monitored_segments fatih) in
  addi acc "crypto.fingerprints" (Core.Fatih.fingerprints_observed fatih);
  addi acc "fatih.segments" segments;
  addi acc "fatih.segment_rounds" (segments * rounds);
  addi acc "fatih.detections" (List.length (Core.Fatih.detections fatih));
  addi acc "fatih.rounds_degraded" (Core.Fatih.rounds_degraded fatih);
  addi acc "fatih.rounds_excused" (Core.Fatih.rounds_excused fatih);
  addi acc "fatih.words_exchanged" (Core.Fatih.words_exchanged fatih)

let interior (d : Core.Fatih.detection) =
  match d.Core.Fatih.segment with [ _; m; _ ] -> Some m | _ -> None

let fatih_prepare p ~seed acc _unit =
  let kc = Ab.id Ab.Kansas_city in
  let g = L.span "topology.generate" (fun () -> Ab.graph ()) in
  let rt = L.span "topology.routing" (fun () -> Topology.Routing.compute g) in
  let net =
    L.span "netsim.build" (fun () ->
        let net = Net.create ~seed:(derive seed 1) ~jitter_bound:100e-6 g in
        Net.use_routing net rt;
        net)
  in
  let config =
    { Core.Fatih.default_config with
      Core.Fatih.tau = fatih_tau; exchange = Core.Fatih.Reconcile }
  in
  let fatih = L.span "detector.deploy" (fun () -> Core.Fatih.deploy ~net ~rt ~config ()) in
  listen acc net;
  let flows, ping =
    L.span "traffic.build" (fun () ->
        let flows =
          List.map
            (fun (a, b) ->
              Flow.cbr net ~src:(Ab.id a) ~dst:(Ab.id b) ~rate_pps:100.0 ~size:600
                ~start:0.0 ~stop:p.horizon)
            abilene_pairs
        in
        ( flows,
          Ping.start net ~src:(Ab.id Ab.New_york) ~dst:(Ab.id Ab.Sunnyvale)
            ~interval:1.0 ~start:1.0 ~stop:(p.horizon -. 2.0) () ))
  in
  Router.set_behavior (Net.router net kc)
    (Core.Adversary.after p.attack_start
       (Core.Adversary.drop_fraction ~seed:(derive seed 3) 0.2));
  fun () ->
    run_net acc ~slice:fatih_tau ~horizon:p.horizon net;
    L.span "check" (fun () ->
        let rounds = int_of_float (p.horizon /. fatih_tau) in
        fatih_counters acc fatih ~rounds;
        let dets = Core.Fatih.detections fatih in
        let on_kc =
          List.filter
            (fun d -> interior d = Some kc && d.Core.Fatih.time >= p.attack_start)
            dets
        in
        record_detection acc p ~attacked:true
          (match on_kc with d :: _ -> Some d.Core.Fatih.time | [] -> None);
        (* Fig 5.7: Kansas City is implicated in the round that closes
           just after the attack starts, and a routing update follows. *)
        let judged = Float.ceil (p.attack_start /. fatih_tau) *. fatih_tau in
        let fails = ref [] in
        let expect ok msg = if not ok then fails := msg :: !fails in
        expect
          (List.for_all (fun d -> d.Core.Fatih.time >= p.attack_start) dets)
          "fatih alarmed before the attack started";
        (match
           List.find_opt
             (fun d -> Float.abs (d.Core.Fatih.time -. judged) < 1e-6)
             on_kc
         with
        | None ->
            expect false
              (Printf.sprintf "Kansas City not implicated in the round ending %.0f s"
                 judged)
        | Some d ->
            expect
              (List.exists
                 (fun (u : Core.Response.event) ->
                   u.Core.Response.time > d.Core.Fatih.time)
                 (Core.Response.updates (Core.Fatih.response fatih)))
              "no routing update followed the detection");
        let sent = List.fold_left (fun a f -> a + Flow.sent f) 0 flows in
        (* Each ping request may be answered by one reply. *)
        let pings = Ping.sent ping in
        List.rev !fails
        @ conservation acc ~sent:(Between (sent + pings, sent + (2 * pings))) net g)

(* --- chaos-byz (mrdetect chaos --byzantine) ---------------------------- *)

let ring_n = 8
let ring_attacker = 2

(* One trial of Experiments.Fig_robustness.chaos_trial, step by step and
   in the same order, so its oracle outcome is the same (checked by the
   equivalence run). *)
let chaos_prepare p ~seed acc trial =
  L.trial := trial;
  let attacked = trial mod 2 = 1 in
  let g = L.span "topology.generate" (fun () -> Topology.Generate.ring ~n:ring_n) in
  let schedule =
    L.span "faults.generate" (fun () ->
        Faults.Chaos.generate ~seed:(seed + (1009 * trial)) ~graph:g
          ~duration:p.horizon ~budget:Faults.Chaos.byzantine_budget ())
  in
  let probe, net =
    L.span "netsim.build" (fun () ->
        let probe = Probe.create ~journal_capacity:16384 () in
        let net = Net.create ~seed:(seed + trial) ~jitter_bound:200e-6 g in
        Net.set_probe net (Some probe);
        (probe, net))
  in
  let rt = L.span "topology.routing" (fun () -> Topology.Routing.compute g) in
  L.span "netsim.build" (fun () -> Net.use_routing net rt);
  let injector =
    L.span "faults.inject" (fun () -> Faults.Injector.apply ~probe ~net schedule)
  in
  let ctrl, byz =
    L.span "faults.inject" (fun () ->
        ( Faults.Injector.ctrl schedule,
          Faults.Injector.byz ~n:ring_n schedule ))
  in
  listen acc net;
  let flows =
    L.span "traffic.build" (fun () ->
        let rng = Random.State.make [| seed + trial; 0x0b0e |] in
        let pairs = ref [] in
        let guard = ref 0 in
        while List.length !pairs < 8 && !guard < 1000 do
          incr guard;
          let s = Random.State.int rng ring_n and d = Random.State.int rng ring_n in
          if s <> d && not (List.mem (s, d) !pairs) then pairs := (s, d) :: !pairs
        done;
        List.map
          (fun (s, d) ->
            Flow.cbr net ~src:s ~dst:d ~rate_pps:80.0 ~size:500 ~start:0.0
              ~stop:p.horizon)
          !pairs)
  in
  if attacked then
    Router.set_behavior (Net.router net ring_attacker)
      (Core.Adversary.after p.attack_start
         (Core.Adversary.drop_fraction ~seed:9 0.25));
  let fatih =
    L.span "detector.deploy" (fun () ->
        Core.Fatih.deploy ~net ~rt ~probe ~ctrl ?byz ())
  in
  fun () ->
    run_net acc ~slice:fatih_tau ~horizon:p.horizon net;
    let malicious = if attacked then [ ring_attacker ] else [] in
    let byzantine = match byz with Some bz -> Core.Byz.routers bz | None -> [] in
    let outcome =
      L.span "faults.oracle" (fun () ->
          Faults.Oracle.of_probe ~malicious ~byzantine
            ?byz_stats:(Option.map Core.Byz.stats byz) ~attack_start:p.attack_start
            probe)
    in
    L.span "check" (fun () ->
        acc.oracle <-
          (trial, Telemetry.Export.to_string (Faults.Oracle.json_report outcome))
          :: acc.oracle;
        fatih_counters acc fatih ~rounds:(int_of_float (p.horizon /. fatih_tau));
        let cs = Core.Ctrl.stats ctrl in
        addi acc "ctrl.sends" cs.Core.Ctrl.sends;
        addi acc "ctrl.attempts" cs.Core.Ctrl.attempts;
        addi acc "ctrl.timeouts" cs.Core.Ctrl.timeouts;
        let o = outcome in
        addi acc "byz.forgeries_rejected" o.Faults.Oracle.forgeries_rejected;
        addi acc "byz.equivocations_detected" o.Faults.Oracle.equivocations_detected;
        addi acc "byz.mute_refusals" o.Faults.Oracle.mute_refusals;
        addi acc "byz.framed_honest" o.Faults.Oracle.framed_honest;
        addi acc "faults.injected" (Faults.Injector.injected injector);
        let j = Probe.journal probe in
        addi acc "telemetry.journal_records" (Telemetry.Journal.total j);
        addi acc "telemetry.journal_dropped" (Telemetry.Journal.dropped j);
        (* First alarm implicating the attacker, by the oracle's rule: a
           verdict implicates its subject, or its suspects without one. *)
        let implicates (v : Probe.verdict) =
          match v.Probe.subject with Some s -> [ s ] | None -> v.Probe.suspects
        in
        record_detection acc p ~attacked
          (List.find_map
             (fun (v : Probe.verdict) ->
               if v.Probe.alarm && v.Probe.time >= p.attack_start
                  && List.mem ring_attacker (implicates v)
               then Some v.Probe.time
               else None)
             (Faults.Oracle.verdicts_of_probe probe));
        let sent = List.fold_left (fun a f -> a + Flow.sent f) 0 flows in
        honest_failures o @ conservation acc ~probe ~sent:(Exact sent) net g)

(* The user-facing path for the same seed and trial. *)
let chaos_reference p ~seed trial =
  let _, _, t =
    Experiments.Fig_robustness.chaos_trial ~seed ~duration:p.horizon
      ~budget:Faults.Chaos.byzantine_budget trial
  in
  Telemetry.Export.to_string
    (Faults.Oracle.json_report t.Experiments.Fig_robustness.outcome)

(* --- chi-red-tcp (Figs 6.11-6.16) -------------------------------------- *)

let chi_tau = 2.0
let bottleneck = Experiments.Scenario.bottleneck_router
let sink = Experiments.Scenario.sink

let chi_prepare p ~seed acc _unit =
  let params = Red.default_params in
  let g = L.span "topology.generate" (fun () -> Experiments.Scenario.topology ()) in
  let net =
    L.span "netsim.build" (fun () ->
        Net.create ~seed:(derive seed 1) ~queue:(Net.Red params) ~jitter_bound:200e-6 g)
  in
  let rt = L.span "topology.routing" (fun () -> Topology.Routing.compute g) in
  L.span "netsim.build" (fun () -> Net.use_routing net rt);
  let chi =
    L.span "detector.deploy" (fun () ->
        Core.Chi_red.deploy ~net ~rt ~router:bottleneck ~next:sink ~params
          ~config:{ Core.Chi_red.default_config with Core.Chi_red.tau = chi_tau }
          ())
  in
  listen acc net;
  let tcps, victim, cbr =
    L.span "traffic.build" (fun () ->
        let background = List.map (fun src -> Tcp.connect net ~src ~dst:sink ()) [ 0; 1 ] in
        let victim = Tcp.connect net ~src:2 ~dst:sink () in
        let cbr =
          Flow.cbr net ~src:0 ~dst:sink ~rate_pps:300.0 ~size:1000 ~start:5.0
            ~stop:p.horizon
        in
        (victim :: background, victim, cbr))
  in
  (* Attack 1: drop the victim flow while the RED average exceeds 45 kB. *)
  Router.set_behavior (Net.router net bottleneck)
    (Core.Adversary.after p.attack_start
       (Core.Adversary.on_flows [ Tcp.flow_id victim ]
          (Core.Adversary.drop_when_red_avg_above 45000.0)));
  fun () ->
    run_net acc ~slice:chi_tau ~horizon:p.horizon net;
    L.span "check" (fun () ->
        let reports = Core.Chi_red.reports chi in
        let alarms = Core.Chi_red.alarms chi in
        addi acc "chi.rounds" (List.length reports);
        addi acc "chi.alarms" (List.length alarms);
        List.iter
          (fun c ->
            addi acc "tcp.retransmits" (Tcp.retransmits c);
            addi acc "tcp.timeouts" (Tcp.timeouts c))
          tcps;
        let after =
          List.filter (fun r -> r.Core.Chi_red.end_time > p.attack_start) alarms
        in
        record_detection acc p ~attacked:true
          (match after with r :: _ -> Some r.Core.Chi_red.end_time | [] -> None);
        let early = List.length alarms - List.length after in
        (if early > 0 then
           [ Printf.sprintf "chi-red alarmed in %d rounds before the attack" early ]
         else [])
        @ (if after = [] then [ "chi-red never implicated the attacker" ] else [])
        @ conservation acc ~sent:(Between (Flow.sent cbr, max_int)) net g)

(* --- registry --------------------------------------------------------- *)

type t = {
  name : string;
  params : smoke:bool -> params;
  prepare : params -> seed:int -> acc -> int -> unit -> string list;
  fp_size : int;   (* packet bytes the per-packet fingerprint covers *)
  fatih : bool;    (* runs Fatih: fingerprint, TV and reconciliation kernels apply *)
  reconcile : bool;
}

let all =
  [ { name = "fwd-sprintlink";
      params =
        (fun ~smoke ->
          if smoke then { horizon = 1.0; attack_start = 0.0; trials = 1; pairs = 40 }
          else { horizon = 20.0; attack_start = 0.0; trials = 1; pairs = 400 });
      prepare = fwd_prepare; fp_size = 500; fatih = false; reconcile = false };
    { name = "fatih-abilene";
      params =
        (fun ~smoke ->
          if smoke then { horizon = 30.0; attack_start = 17.0; trials = 1; pairs = 0 }
          else { horizon = 200.0; attack_start = 117.0; trials = 1; pairs = 0 });
      prepare = fatih_prepare; fp_size = 600; fatih = true; reconcile = true };
    { name = "chaos-byz";
      params =
        (fun ~smoke ->
          if smoke then { horizon = 10.0; attack_start = 10.0 /. 3.0; trials = 2; pairs = 0 }
          else { horizon = 30.0; attack_start = 10.0; trials = 24; pairs = 0 });
      prepare = chaos_prepare; fp_size = 500; fatih = true; reconcile = false };
    { name = "chi-red-tcp";
      params =
        (fun ~smoke ->
          if smoke then { horizon = 40.0; attack_start = 20.0; trials = 1; pairs = 0 }
          else { horizon = 300.0; attack_start = 20.0; trials = 1; pairs = 0 });
      prepare = chi_prepare; fp_size = 1000; fatih = false; reconcile = false } ]

let find name = List.find_opt (fun w -> w.name = name) all
