(* Benchmark entry point: one workload, one seed, a time budget.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   --trace 0 repeats the workload untraced until the budget is spent and
   reports the end-to-end metrics (see [end_to_end]).  --trace 1
   alternates an untraced and a traced rep, reports the per-layer
   metrics (medians over the pairs), times the kernels once and dumps
   the traced rep's spans to .perfbench/.  --smoke shrinks every
   horizon for a quick check of the whole pipeline.  The last line of
   standard output is the result object. *)

module W = Workloads
module L = Ledger
module J = Telemetry.Export

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- one rep ----------------------------------------------------------- *)

type rep = { acc : W.acc; wall : float; spans : L.span array }

(* Every unit of the workload, each isolated: an exception in one unit
   counts as that unit's failure and the rep goes on. *)
let run_rep (w : W.t) p ~seed ~traced ?with_probe ?timed () =
  let acc = W.new_acc ?with_probe ?timed ~traced () in
  Gc.full_major ();
  L.reset ();
  L.enabled := traced;
  let t0 = L.clock () in
  L.span "workload" (fun () ->
      for i = 0 to p.W.trials - 1 do
        let s0 = L.clock () in
        let runner = try Ok (w.W.prepare p ~seed acc i) with e -> Error e in
        acc.W.setup_s <- acc.W.setup_s +. (L.clock () -. s0);
        acc.W.units <- acc.W.units + 1;
        let failures =
          match runner with
          | Ok run -> ( try run () with e -> [ "exception: " ^ Printexc.to_string e ])
          | Error e -> [ "exception in set-up: " ^ Printexc.to_string e ]
        in
        if failures <> [] then begin
          acc.W.failed <- acc.W.failed + 1;
          List.iter
            (fun m -> Printf.eprintf "%s unit %d: check failed: %s\n%!" w.W.name i m)
            failures
        end
      done);
  let wall = L.clock () -. t0 in
  L.enabled := false;
  { acc; wall; spans = (if traced then L.spans () else [||]) }

(* Set-up alone, [batch] times over: build every unit and drop it
   before it runs; seconds per set-up.  A short set-up is timed in a
   batch so that the clock's resolution does not show.  A single set-up
   starts from a collected heap, like a rep. *)
let setup_only (w : W.t) p ~seed ~batch =
  let acc = W.new_acc ~traced:false () in
  if batch = 1 then Gc.full_major ();
  let t0 = L.clock () in
  for _ = 1 to batch do
    for i = 0 to p.W.trials - 1 do
      let (_ : unit -> string list) = w.W.prepare p ~seed acc i in
      ()
    done
  done;
  (L.clock () -. t0) /. float batch

(* --- end-to-end metrics ------------------------------------------------ *)

let detect_latency p (acc : W.acc) =
  if acc.W.attacked = 0 then p.W.horizon else median acc.W.latencies

let recall (acc : W.acc) =
  if acc.W.attacked = 0 then 1.0
  else float_of_int acc.W.implicated /. float_of_int acc.W.attacked

let sum = List.fold_left ( +. ) 0.0

(* Seconds at the reference speed (see reference.ml): [t] seconds
   measured while the reference took [ref_s]. *)
let normalize ~ref_s t = t *. Reference.nominal_s /. ref_s

(* A rep's median reference time; a rep whose every unit failed in
   set-up ran no slice and took none, and is left unscaled. *)
let rep_ref (acc : W.acc) =
  if acc.W.refs = [] then Reference.nominal_s else median acc.W.refs

(* The end-to-end estimate.  Every rep of a run is the same
   deterministic computation, slice for slice.  Each slice is
   normalized by the reference timings around it, and taken at the
   fastest any rep ran it; the rest of a rep (set-up, scoring, checks)
   is normalized by the rep's median reference time and taken from the
   fastest rep.  Set-up is the median of its normalized samples. *)
let end_to_end reps ~setups ~heap_mb ~failed ~attempted =
  let rep_norm r = normalize ~ref_s:(rep_ref r.acc) in
  let slices = List.map (fun r -> Array.of_list (List.rev r.acc.W.norm_slices)) reps in
  let n = Array.length (List.hd slices) in
  let run_s =
    if List.exists (fun a -> Array.length a <> n) slices then
      List.fold_left (fun m r -> Float.min m (rep_norm r r.acc.W.run_s)) infinity reps
    else begin
      let best = Array.make n infinity in
      List.iter (Array.iteri (fun i t -> best.(i) <- Float.min best.(i) t)) slices;
      Array.fold_left ( +. ) 0.0 best
    end
  in
  let rest =
    List.fold_left
      (fun m r ->
        Float.min m (rep_norm r (r.wall -. r.acc.W.run_s -. sum r.acc.W.refs)))
      infinity reps
  in
  let wall = run_s +. rest in
  let r0 = List.hd reps in
  [ ("wall_s", "s", wall);
    ("setup_s", "s", median setups);
    ("events_per_s", "1/s", float r0.acc.W.events /. run_s);
    ("trials_per_s", "1/s", float r0.acc.W.units /. wall);
    ("peak_heap_mb", "MB", heap_mb);
    ("passed_frac", "frac", 1.0 -. (float failed /. float attempted)) ]

(* --- kernels ------------------------------------------------------------ *)

(* Seconds per call: the median over batches of the mean call time. *)
let per_call name ~batch f =
  median
    (List.init 7 (fun _ ->
         L.span name (fun () ->
             let t0 = L.clock () in
             for _ = 1 to batch do
               ignore (Sys.opaque_identity (f ()))
             done;
             (L.clock () -. t0) /. float batch)))

let fp_of i = Int64.mul (Int64.of_int (i + 1)) 0x9e3779b97f4a7c15L

type kernels = {
  fingerprint_ns : float;  (* SipHash over the packet's bytes (§7.1) *)
  packet_fp_ns : float;    (* Packet.fingerprint, as the detectors call it *)
  tv_us : float;
  diff_ms : float;
}

(* Unit costs at this workload's sizes: a SipHash over a whole packet,
   the simulator's packet fingerprint, one TV call on a segment-round
   summary of the mean size, and one set reconciliation of that round
   with the 20 % loss difference the attack produces. *)
let kernels (w : W.t) (acc : W.acc) =
  let key = Crypto_sim.Siphash.key_of_string "fatih" in
  let msg = String.make w.W.fp_size 'x' in
  let fingerprint_ns =
    1e9 *. per_call "kernel.crypto.fingerprint" ~batch:20000 (fun () ->
        Crypto_sim.Siphash.hash key msg)
  in
  let pkt =
    Netsim.Packet.make_at ~now:0.0 ~uid:1 ~src:0 ~dst:1 ~flow:1 ~size:w.W.fp_size
      Netsim.Packet.Udp
  in
  let packet_fp_ns =
    1e9 *. per_call "kernel.crypto.packet_fp" ~batch:20000 (fun () ->
        Netsim.Packet.fingerprint key pkt)
  in
  let n =
    int_of_float
      (ratio (W.count acc "crypto.fingerprints")
         (2.0 *. W.count acc "fatih.segment_rounds"))
  in
  let kept = n - (n / 5) in
  let tv_us =
    if not w.W.fatih || n = 0 then 0.0
    else begin
      let sent = Core.Summary.create Core.Summary.Content in
      let received = Core.Summary.create Core.Summary.Content in
      for i = 0 to n - 1 do
        Core.Summary.observe sent ~fp:(fp_of i) ~size:500 ~time:0.0;
        if i < kept then Core.Summary.observe received ~fp:(fp_of i) ~size:500 ~time:0.0
      done;
      1e6 *. per_call "kernel.fatih.tv" ~batch:100 (fun () ->
          Core.Validation.tv ~thresholds:(Core.Validation.lenient ()) ~sent ~received ())
    end
  in
  let diff_ms =
    if not w.W.reconcile || n = 0 then 0.0
    else begin
      let a =
        Array.init n (fun i -> Setrecon.Reconcile.element_of_fingerprint (fp_of i))
      in
      let b = Array.sub a 0 kept in
      1e3 *. per_call "kernel.setrecon.diff" ~batch:2 (fun () ->
          Setrecon.Reconcile.diff ~rng:(Random.State.make [| 7 |]) ~max_bound:512 ~a ~b ())
    end
  in
  { fingerprint_ns; packet_fp_ns; tv_us; diff_ms }

(* --- per-layer metrics -------------------------------------------------- *)

let per_layer (w : W.t) p ~(untraced : rep) ~(traced : rep) ~gc_pause ~probe_ns
    (k : kernels) =
  let u = untraced.acc and t = traced.acc in
  let c = W.count u in
  let spans = traced.spans in
  let total = L.total spans in
  let events = float u.W.events in
  let run_s = total "netsim.slice" in
  let slices = L.durations spans "netsim.slice" in
  let self = L.self_times spans in
  let fatih = if w.W.fatih then 1.0 else 0.0 in
  let segment_rounds = c "fatih.segment_rounds" in
  [ ("detect.latency_sim_s", "s", detect_latency p u);
    ("detect.recall", "frac", recall u);
    ("topology.generate_s", "s", total "topology.generate");
    ("topology.routing_s", "s", total "topology.routing");
    ("netsim.build_s", "s", total "netsim.build");
    ("traffic.build_s", "s", total "traffic.build");
    ("detector.deploy_s", "s", total "detector.deploy");
    ("netsim.events", "count", events);
    ("netsim.run_s", "s", run_s);
    ("netsim.slice_s_p50", "s", median slices);
    ("netsim.slice_s_max", "s", List.fold_left Float.max 0.0 slices);
    ("gc.minor_words_per_event", "words", ratio u.W.minor_words events);
    ("gc.promoted_words_per_event", "words", ratio u.W.promoted_words events);
    ("gc.major_collections", "count", float u.W.major_collections);
    ("gc.pause_s", "s", gc_pause);
    ( "netsim.pool_recycled_frac", "frac",
      ratio (c "pool.recycled") (c "pool.recycled" +. c "pool.fresh") );
    ("router.forwarded", "count", c "router.forwarded");
    ("router.delivered", "count", c "router.delivered");
    ("iface.tx", "count", c "iface.tx");
    ("iface.dropped", "count", c "iface.dropped");
    ("netsim.hops_per_pkt", "count", ratio (c "iface.tx") (c "netsim.originated"));
    ("iface.enqueue", "count", W.count t "iface.enqueue");
    ("iface.drop_congestion", "count", W.count t "iface.drop_congestion");
    ("iface.drop_red_early", "count", W.count t "iface.drop_red_early");
    ("router.malicious_drop", "count", W.count t "router.malicious_drop");
    ("tcp.retransmits", "count", c "tcp.retransmits");
    ("tcp.timeouts", "count", c "tcp.timeouts");
    ("crypto.fingerprints", "count", c "crypto.fingerprints");
    ("crypto.fingerprint_ns", "ns", k.fingerprint_ns);
    ("crypto.packet_fp_ns", "ns", k.packet_fp_ns);
    ( "crypto.busy_frac", "frac",
      fatih *. ratio (c "crypto.fingerprints" *. k.packet_fp_ns *. 1e-9) run_s );
    ("fatih.segments", "count", c "fatih.segments");
    ("fatih.detections", "count", c "fatih.detections");
    ("fatih.rounds_degraded", "count", c "fatih.rounds_degraded");
    ("fatih.rounds_excused", "count", c "fatih.rounds_excused");
    ("fatih.words_exchanged", "words", c "fatih.words_exchanged");
    ("fatih.tv_us", "us", k.tv_us);
    ("setrecon.diff_ms", "ms", k.diff_ms);
    ( "setrecon.words_per_round", "words",
      if w.W.reconcile then ratio (c "fatih.words_exchanged") segment_rounds else 0.0 );
    ("ctrl.sends", "count", c "ctrl.sends");
    ("ctrl.attempts", "count", c "ctrl.attempts");
    ("ctrl.timeouts", "count", c "ctrl.timeouts");
    ("ctrl.retry_ratio", "frac", ratio (c "ctrl.attempts") (c "ctrl.sends"));
    ("byz.forgeries_rejected", "count", c "byz.forgeries_rejected");
    ("byz.equivocations_detected", "count", c "byz.equivocations_detected");
    ("byz.mute_refusals", "count", c "byz.mute_refusals");
    ("byz.framed_honest", "count", c "byz.framed_honest");
    ("faults.generate_s", "s", total "faults.generate");
    ("faults.inject_s", "s", total "faults.inject");
    ("faults.injected", "count", c "faults.injected");
    ("faults.oracle_s", "s", total "faults.oracle");
    ("telemetry.journal_records", "count", c "telemetry.journal_records");
    ("telemetry.journal_dropped", "count", c "telemetry.journal_dropped");
    ("telemetry.probe_ns_per_event", "ns", probe_ns);
    ("chi.rounds", "count", c "chi.rounds");
    ("chi.alarms", "count", c "chi.alarms");
    ("trace.overhead_s", "s", traced.wall -. untraced.wall);
    ("trace.spans", "count", float (Array.length spans));
    ( "trace.self_time_coverage", "frac",
      ratio (Array.fold_left ( +. ) 0.0 self) traced.wall ) ]

(* Medians by name over several lists of (name, unit, value). *)
let median_rows = function
  | [] -> []
  | first :: _ as rows ->
      List.map
        (fun (name, unit, _) ->
          let vs =
            List.concat_map
              (List.filter_map (fun (n, _, v) -> if n = name then Some v else None))
              rows
          in
          (name, unit, median vs))
        first

(* --- output ------------------------------------------------------------- *)

let provenance (w : W.t) p ~seed ~seconds ~trace ~smoke =
  let env k d = Option.value ~default:d (Sys.getenv_opt k) in
  J.Assoc
    [ ("host", J.String (Unix.gethostname ()));
      ("nproc", J.String (env "PERFBENCH_NPROC" "unknown"));
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("commit", J.String (env "PERFBENCH_COMMIT" "unknown"));
      ("workload", J.String w.W.name);
      ("seed", J.Int seed);
      ("seconds", J.Int seconds);
      ("trace", J.Bool trace);
      ("smoke", J.Bool smoke);
      ( "params",
        J.Assoc
          [ ("horizon_s", J.Float p.W.horizon);
            ("attack_start_s", J.Float p.W.attack_start);
            ("units", J.Int p.W.trials);
            ("pairs", J.Int p.W.pairs) ] ) ]

let result ~failed ~attempted rows =
  J.Assoc
    [ ("correct", J.Bool (failed = 0));
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Assoc
          (List.map
             (fun (name, unit, v) ->
               (name, J.Assoc [ ("value", J.Float v); ("unit", J.String unit) ]))
             rows) ) ]

let dump_spans (w : W.t) ~seed spans =
  let dir = ".perfbench" in
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/spans-%s-seed%d.tsv" dir w.W.name seed in
    L.dump path spans;
    Printf.eprintf "spans written to %s\n%!" path
  with Sys_error m -> Printf.eprintf "spans not written: %s\n%!" m

(* --- main ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and smoke = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w, seed, seconds, trace =
    match (W.find !workload, !seed, !seconds, !trace) with
    | Some w, Some seed, Some s, Some ((0 | 1) as t) when s >= 1 -> (w, seed, s, t = 1)
    | _ -> usage ()
  in
  if not (W.self_test ()) then begin
    prerr_endline "self-test: the honest-conviction check accepted a framed verdict";
    exit 1
  end;
  let p = w.W.params ~smoke:!smoke in
  print_endline
    ("# provenance "
    ^ J.to_string (provenance w p ~seed ~seconds ~trace ~smoke:!smoke));
  let start = L.clock () in
  let elapsed () = L.clock () -. start in
  (* Repeat [f] while another rep of the last one's length fits. *)
  let repeat f =
    let rec go acc =
      let t0 = L.clock () in
      let r = f () in
      let acc = r :: acc in
      if elapsed () +. (L.clock () -. t0) > float seconds then List.rev acc else go acc
    in
    go []
  in
  (* mrdetect chaos --byzantine on one trial of this seed must score
     like the benchmark's step-by-step trial. *)
  let equivalence (acc : W.acc) =
    if w.W.name <> "chaos-byz" then (0, 0)
    else begin
      let trial = (1 + (2 * (seed land 0xff))) mod p.W.trials in
      let reference = W.chaos_reference p ~seed trial in
      match List.assoc_opt trial acc.W.oracle with
      | Some mine when mine = reference -> (1, 0)
      | _ ->
          Printf.eprintf
            "chaos-byz trial %d: oracle outcome differs from \
             Fig_robustness.chaos_trial\n%!"
            trial;
          (1, 1)
    end
  in
  let rows, failed, attempted =
    if not trace then begin
      (* A first rep, before the reference computation exists, warms up
         and gives the program's heap high-water mark. *)
      let first = run_rep w p ~seed ~traced:false () in
      let heap_mb =
        float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0
      in
      let setups = ref [] in
      let reps =
        repeat (fun () ->
            let r = run_rep w p ~seed ~traced:false ~timed:true () in
            (* A few more set-up samples after every rep spread them over
               the run like the reps. *)
            let batch = max 1 (min 1000 (int_of_float (0.01 /. r.acc.W.setup_s))) in
            setups := normalize ~ref_s:(rep_ref r.acc) r.acc.W.setup_s :: !setups;
            for _ = 1 to 3 do
              let t = setup_only w p ~seed ~batch in
              setups := normalize ~ref_s:(Reference.measure ()) t :: !setups
            done;
            r)
      in
      let eq_attempted, eq_failed = equivalence (List.hd reps).acc in
      let failed =
        eq_failed + List.fold_left (fun a r -> a + r.acc.W.failed) 0 (first :: reps)
      in
      let attempted =
        eq_attempted + List.fold_left (fun a r -> a + r.acc.W.units) 0 (first :: reps)
      in
      List.iter
        (fun r ->
          Printf.printf "# rep wall_s %.4f setup_s %.4f run_s %.4f events %d\n" r.wall
            r.acc.W.setup_s r.acc.W.run_s r.acc.W.events)
        reps;
      (end_to_end reps ~setups:!setups ~heap_mb ~failed ~attempted, failed, attempted)
    end
    else begin
      Gcpause.start ();
      let pairs =
        repeat (fun () ->
            let p0 = Gcpause.seconds () and lost0 = !Gcpause.lost in
            let untraced = run_rep w p ~seed ~traced:false () in
            let gc_pause = Gcpause.seconds () -. p0 in
            if !Gcpause.lost > lost0 then
              Printf.eprintf "runtime events: %d lost, so gc.pause_s is a lower bound\n%!"
                (!Gcpause.lost - lost0);
            let traced = run_rep w p ~seed ~traced:true () in
            (untraced, traced, gc_pause))
      in
      let untraced, traced, _ = List.hd pairs in
      L.reset ();
      L.enabled := true;
      let k = kernels w untraced.acc in
      let kernel_spans = L.spans () in
      (* The probe's cost per event: fwd-sprintlink once more, observed. *)
      let probe_ns =
        if w.W.name <> "fwd-sprintlink" then 0.0
        else
          let observed = run_rep w p ~seed ~traced:false ~with_probe:true () in
          1e9 *. ratio (observed.acc.W.run_s -. untraced.acc.W.run_s)
                   (float untraced.acc.W.events)
      in
      dump_spans w ~seed (Array.append traced.spans kernel_spans);
      let eq_attempted, eq_failed = equivalence untraced.acc in
      let all_reps = List.concat_map (fun (u, t, _) -> [ u; t ]) pairs in
      (* The traced run must be the same simulation as the untraced one. *)
      let mismatched =
        List.length
          (List.filter (fun (u, t, _) -> u.acc.W.events <> t.acc.W.events) pairs)
      in
      if mismatched > 0 then prerr_endline "traced run processed different events";
      let failed =
        eq_failed + mismatched + List.fold_left (fun a r -> a + r.acc.W.failed) 0 all_reps
      in
      let attempted =
        eq_attempted + List.length pairs
        + List.fold_left (fun a r -> a + r.acc.W.units) 0 all_reps
      in
      let rows =
        median_rows
          (List.map
             (fun (untraced, traced, gc_pause) ->
               per_layer w p ~untraced ~traced ~gc_pause ~probe_ns k)
             pairs)
      in
      (rows, failed, attempted)
    end
  in
  print_endline (J.to_string (result ~failed ~attempted rows))
