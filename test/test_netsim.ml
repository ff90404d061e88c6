(* Tests for the netsim substrate: event engine, queues, RED, interfaces,
   routers with adversarial hooks, flows, ping, and TCP Reno. *)

open Netsim
module G = Topology.Graph
module Gen = Topology.Generate
module Rt = Topology.Routing

(* --- Sim --- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 3.0 (Sim.now sim);
  Alcotest.(check int) "processed" 3 (Sim.events_processed sim)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := 2 :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := 3 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !log)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    Sim.schedule sim ~delay:1.0 tick
  in
  Sim.schedule sim ~delay:1.0 tick;
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "five ticks" 5 !fired;
  Alcotest.(check (float 1e-9)) "clock at until" 5.5 (Sim.now sim)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let hits = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () ->
      hits := ("outer", Sim.now sim) :: !hits;
      Sim.schedule sim ~delay:0.5 (fun () -> hits := ("inner", Sim.now sim) :: !hits));
  Sim.run sim;
  match List.rev !hits with
  | [ ("outer", t1); ("inner", t2) ] ->
      Alcotest.(check (float 1e-9)) "outer" 1.0 t1;
      Alcotest.(check (float 1e-9)) "inner" 1.5 t2
  | _ -> Alcotest.fail "wrong event sequence"

let test_sim_rejects_past () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () ->
      Alcotest.(check bool) "past rejected" true
        (try
           Sim.schedule_at sim ~time:0.5 (fun () -> ());
           false
         with Invalid_argument _ -> true));
  Sim.run sim

let test_sim_fresh_ids () =
  let sim = Sim.create () in
  let a = Sim.fresh_id sim in
  let b = Sim.fresh_id sim in
  let c = Sim.fresh_id sim in
  Alcotest.(check (list int)) "sequential" [ 0; 1; 2 ] [ a; b; c ]

(* --- queues --- *)

let mk_pkt sim ?(size = 1000) () =
  Packet.make ~sim ~src:0 ~dst:1 ~flow:0 ~size Packet.Udp

let test_fifo_capacity () =
  let sim = Sim.create () in
  let q = Queue_fifo.create ~limit_bytes:2500 () in
  Alcotest.(check bool) "p1" true (Queue_fifo.try_enqueue q (mk_pkt sim ()));
  Alcotest.(check bool) "p2" true (Queue_fifo.try_enqueue q (mk_pkt sim ()));
  Alcotest.(check bool) "p3 rejected" false (Queue_fifo.try_enqueue q (mk_pkt sim ()));
  Alcotest.(check int) "occupancy" 2000 (Queue_fifo.occupancy q);
  ignore (Queue_fifo.dequeue q);
  Alcotest.(check bool) "fits after dequeue" true (Queue_fifo.try_enqueue q (mk_pkt sim ()))

let test_fifo_order () =
  let sim = Sim.create () in
  let q = Queue_fifo.create () in
  let p1 = mk_pkt sim () and p2 = mk_pkt sim () in
  ignore (Queue_fifo.try_enqueue q p1);
  ignore (Queue_fifo.try_enqueue q p2);
  (match Queue_fifo.dequeue q with
  | Some p -> Alcotest.(check int) "fifo head" p1.Packet.uid p.Packet.uid
  | None -> Alcotest.fail "nonempty");
  Alcotest.(check int) "len" 1 (Queue_fifo.length q)

let test_red_below_min_never_drops () =
  let sim = Sim.create () in
  let rng = Random.State.make [| 9 |] in
  let q = Red.create ~rng () in
  (* Light load: enqueue/dequeue alternating keeps avg near one packet. *)
  for i = 0 to 200 do
    (match Red.enqueue q ~now:(float_of_int i) ~link_bw:1.25e6 (mk_pkt sim ()) with
    | `Enqueued -> ()
    | `Early_drop | `Forced_drop -> Alcotest.fail "drop below min_th");
    ignore (Red.dequeue q ~now:(float_of_int i +. 0.5))
  done

let test_red_drops_between_thresholds () =
  let sim = Sim.create () in
  let rng = Random.State.make [| 9 |] in
  let q = Red.create ~rng () in
  (* Hold the instantaneous queue at ~45000 bytes (between the 30000 and
     60000 thresholds) by pairing each arrival with a departure: the EWMA
     converges to the plateau and early drops fire at ~5% while the
     physical limit is never reached. *)
  let early = ref 0 and forced = ref 0 and admitted = ref 0 in
  let now = ref 0.0 in
  for _ = 0 to 44 do
    now := !now +. 0.0001;
    ignore (Red.enqueue q ~now:!now ~link_bw:1.25e6 (mk_pkt sim ()))
  done;
  for _ = 0 to 3999 do
    now := !now +. 0.0008;
    (match Red.enqueue q ~now:!now ~link_bw:1.25e6 (mk_pkt sim ()) with
    | `Enqueued ->
        incr admitted;
        ignore (Red.dequeue q ~now:!now)
    | `Early_drop -> incr early
    | `Forced_drop -> incr forced);
    if Red.occupancy q > 46000 then ignore (Red.dequeue q ~now:!now)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "early drops happened (%d)" !early)
    true (!early > 50);
  Alcotest.(check int) "no forced drops" 0 !forced;
  Alcotest.(check bool) "plateau EWMA" true
    (Red.avg q > 30000.0 && Red.avg q < 60000.0)

let test_red_pure_functions () =
  let p = Red.default_params in
  Alcotest.(check (float 1e-9)) "below min" 0.0
    (Red.early_drop_probability p ~avg:10000.0 ~count:0);
  Alcotest.(check (float 1e-9)) "above max" 1.0
    (Red.early_drop_probability p ~avg:60001.0 ~count:0);
  let mid = Red.early_drop_probability p ~avg:45000.0 ~count:0 in
  Alcotest.(check (float 1e-9)) "midpoint = max_p/2" 0.05 mid;
  (* Uniformization grows with count. *)
  Alcotest.(check bool) "count grows p" true
    (Red.early_drop_probability p ~avg:45000.0 ~count:10 > mid);
  (* avg decays during idle and rises with occupancy. *)
  let a1 = Red.decay_avg p ~avg:30000.0 ~idle:0.1 ~link_bw:1.25e6 in
  Alcotest.(check bool) "decays" true (a1 < 30000.0);
  Alcotest.(check bool) "rises" true (Red.update_avg p ~avg:1000.0 ~occupancy:30000 > 1000.0)

let test_red_gentle_ramp () =
  let p = { Red.default_params with Red.gentle = true } in
  (* At max_th the base probability is max_p; halfway to 2*max_th it is
     halfway to 1; beyond 2*max_th it is certain. *)
  Alcotest.(check (float 1e-9)) "at max_th" 0.1
    (Red.early_drop_probability p ~avg:60000.0 ~count:0);
  Alcotest.(check (float 1e-9)) "midway" 0.55
    (Red.early_drop_probability p ~avg:90000.0 ~count:0);
  Alcotest.(check (float 1e-9)) "beyond" 1.0
    (Red.early_drop_probability p ~avg:120000.0 ~count:0);
  (* Non-gentle jumps to 1 at max_th. *)
  Alcotest.(check (float 1e-9)) "abrupt" 1.0
    (Red.early_drop_probability Red.default_params ~avg:60000.0 ~count:0)

(* --- iface timing --- *)

let test_iface_timing () =
  (* One packet of 1000 B over a 1.25e6 B/s, 10 ms link: delivery at
     1000/1.25e6 + 0.010 = 10.8 ms. *)
  let sim = Sim.create () in
  let g = G.create ~n:2 in
  G.add_link g ~bw:1.25e6 ~delay:0.010 0 1;
  let delivered = ref None in
  let iface =
    Iface.create ~sim ~link:(G.link_exn g 0 1) ~kind:(Iface.Droptail 64000)
      ~on_event:(fun _ ev ->
        match ev with
        | Iface.Delivered _ -> delivered := Some (Sim.now sim)
        | _ -> ())
      ~deliver:(fun ~prev:_ _ -> ())
      ()
  in
  Iface.enqueue iface (mk_pkt sim ());
  Sim.run sim;
  match !delivered with
  | Some t -> Alcotest.(check (float 1e-9)) "delivery time" 0.0108 t
  | None -> Alcotest.fail "not delivered"

let test_iface_serialization () =
  (* Two packets back to back: second delivered one transmission time
     after the first. *)
  let sim = Sim.create () in
  let g = G.create ~n:2 in
  G.add_link g ~bw:1.25e6 ~delay:0.010 0 1;
  let times = ref [] in
  let iface =
    Iface.create ~sim ~link:(G.link_exn g 0 1) ~kind:(Iface.Droptail 64000)
      ~on_event:(fun _ ev ->
        match ev with Iface.Delivered _ -> times := Sim.now sim :: !times | _ -> ())
      ~deliver:(fun ~prev:_ _ -> ())
      ()
  in
  Iface.enqueue iface (mk_pkt sim ());
  Iface.enqueue iface (mk_pkt sim ());
  Sim.run sim;
  match List.rev !times with
  | [ t1; t2 ] -> Alcotest.(check (float 1e-9)) "spacing = tx time" 0.0008 (t2 -. t1)
  | _ -> Alcotest.fail "expected two deliveries"

(* --- network-level --- *)

let line_net ?(jitter_bound = 0.0) ?(queue = Net.Droptail 64000) n =
  let g = Gen.line ~n in
  let net = Net.create ~queue ~jitter_bound g in
  Net.use_routing net (Rt.compute g);
  net

let test_net_end_to_end () =
  let net = line_net 4 in
  let got = ref [] in
  Net.attach_app net ~node:3 (fun pkt -> got := pkt :: !got);
  let pkt = Packet.make ~sim:(Net.sim net) ~src:0 ~dst:3 ~flow:1 ~size:500 Packet.Udp in
  Net.originate net pkt;
  Net.run net;
  Alcotest.(check int) "delivered" 1 (List.length !got);
  Alcotest.(check int) "ttl decremented twice (transit hops)" 62
    (List.hd !got).Packet.ttl

let test_net_congestion_drops () =
  (* Offer 2x the bottleneck rate; the queue must overflow and drops must
     be congestion drops, not anything else. *)
  let net = line_net 3 in
  let congestion = ref 0 and delivered = ref 0 in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with
      | Iface.Drop_congestion _ -> incr congestion
      | Iface.Delivered _ -> ()
      | _ -> ());
  Net.attach_app net ~node:2 (fun _ -> incr delivered);
  (* Link rate 1.25e6 B/s = 1250 pps of 1000 B; offer 2500 pps. *)
  let f = Flow.cbr net ~src:0 ~dst:2 ~rate_pps:2500.0 ~size:1000 ~start:0.0 ~stop:2.0 in
  Net.run net;
  Alcotest.(check bool) "many drops" true (!congestion > 100);
  Alcotest.(check int) "conservation" (Flow.sent f) (!delivered + !congestion)

let test_net_malicious_drop_counted () =
  let net = line_net 3 in
  let malicious = ref 0 and delivered = ref 0 in
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with Router.Malicious_drop _ -> incr malicious | _ -> ());
  Net.attach_app net ~node:2 (fun _ -> incr delivered);
  (* Router 1 drops every 5th transit packet. *)
  let count = ref 0 in
  Router.set_behavior (Net.router net 1) (fun ctx _ ->
      match ctx.Router.prev with
      | Some _ ->
          incr count;
          if !count mod 5 = 0 then Router.Drop else Router.Forward
      | None -> Router.Forward);
  let f = Flow.cbr net ~src:0 ~dst:2 ~rate_pps:100.0 ~size:1000 ~start:0.0 ~stop:1.0 in
  Net.run net;
  Alcotest.(check bool) "some malicious drops" true (!malicious > 10);
  Alcotest.(check int) "conservation" (Flow.sent f) (!delivered + !malicious)

let test_net_modification () =
  let net = line_net 3 in
  let got = ref [] in
  Net.attach_app net ~node:2 (fun pkt -> got := pkt :: !got);
  Router.set_behavior (Net.router net 1) (fun ctx _ ->
      match ctx.Router.prev with
      | Some _ -> Router.Modify 0x6861636bL
      | None -> Router.Forward);
  Net.originate net (Packet.make ~sim:(Net.sim net) ~src:0 ~dst:2 ~flow:1 ~size:100 Packet.Udp);
  Net.run net;
  match !got with
  | [ pkt ] -> Alcotest.(check int64) "payload overwritten" 0x6861636bL pkt.Packet.payload
  | _ -> Alcotest.fail "expected one delivery"

let test_net_ttl_expiry () =
  let net = line_net 5 in
  let expired = ref 0 in
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with Router.Ttl_expired _ -> incr expired | _ -> ());
  let pkt =
    Packet.make ~sim:(Net.sim net) ~src:0 ~dst:4 ~flow:1 ~size:100 ~ttl:2 Packet.Udp
  in
  Net.originate net pkt;
  Net.run net;
  Alcotest.(check int) "expired en route" 1 !expired

let test_net_fabrication () =
  let net = line_net 3 in
  let delivered = ref 0 and fabricated = ref 0 in
  Net.attach_app net ~node:2 (fun _ -> incr delivered);
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with Router.Fabricated _ -> incr fabricated | _ -> ());
  let bogus = Packet.make ~sim:(Net.sim net) ~src:0 ~dst:2 ~flow:9 ~size:100 Packet.Udp in
  Router.fabricate (Net.router net 1) ~next:2 bogus;
  Net.run net;
  Alcotest.(check int) "fabricated" 1 !fabricated;
  Alcotest.(check int) "delivered" 1 !delivered

let test_net_policy_forwarding () =
  let g = Gen.ring ~n:5 in
  let net = Net.create ~jitter_bound:0.0 g in
  let pol = Topology.Policy.compute g ~forbidden:[ [ 0; 1 ] ] in
  Net.use_policy net pol;
  let path_taken = ref [] in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with
      | Iface.Transmit_start _ -> path_taken := ev.Net.router :: !path_taken
      | _ -> ());
  Net.originate net (Packet.make ~sim:(Net.sim net) ~src:0 ~dst:1 ~flow:1 ~size:100 Packet.Udp);
  Net.run net;
  Alcotest.(check (list int)) "long way round" [ 0; 4; 3; 2 ] (List.rev !path_taken)

(* --- flows / ping --- *)

let test_cbr_count () =
  let net = line_net 2 in
  let f = Flow.cbr net ~src:0 ~dst:1 ~rate_pps:10.0 ~size:500 ~start:0.0 ~stop:1.0 in
  let read = Flow.delivered_counter net ~node:1 ~flow:(Flow.flow_id f) in
  Net.run net;
  (* Ticks at 0.0, 0.1, ..., 1.0 inclusive. *)
  Alcotest.(check int) "sent" 11 (Flow.sent f);
  Alcotest.(check int) "all delivered" 11 (read ())

let test_poisson_rate () =
  let net = line_net 2 in
  let f = Flow.poisson net ~src:0 ~dst:1 ~rate_pps:200.0 ~size:200 ~start:0.0 ~stop:10.0 in
  Net.run net;
  let rate = float_of_int (Flow.sent f) /. 10.0 in
  Alcotest.(check bool) (Printf.sprintf "rate %.1f near 200" rate) true
    (Float.abs (rate -. 200.0) < 20.0)

let test_ping_rtt () =
  (* Line 0-1-2, 10 ms links, negligible tx time: RTT = 4 links * 10 ms +
     4 * tx.  size 100 -> tx = 8e-5. *)
  let g = G.create ~n:3 in
  G.add_duplex g ~bw:1.25e6 ~delay:0.010 0 1;
  G.add_duplex g ~bw:1.25e6 ~delay:0.010 1 2;
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let p = Ping.start net ~src:0 ~dst:2 ~interval:0.5 ~start:0.0 ~stop:3.0 () in
  Net.run net;
  Alcotest.(check int) "probes" 7 (Ping.sent p);
  Alcotest.(check int) "no loss" 0 (Ping.lost p);
  List.iter
    (fun (_, rtt) ->
      Alcotest.(check (float 1e-6)) "rtt" (0.040 +. (4.0 *. 8e-5)) rtt)
    (Ping.samples p)

let test_ping_loss () =
  let net = line_net 3 in
  Router.set_behavior (Net.router net 1) (fun ctx pkt ->
      match (ctx.Router.prev, pkt.Packet.proto) with
      | Some _, Packet.Ping _ -> Router.Drop
      | _ -> Router.Forward);
  let p = Ping.start net ~src:0 ~dst:2 ~interval:0.5 ~start:0.0 ~stop:2.0 () in
  Net.run net;
  Alcotest.(check int) "all lost" (Ping.sent p) (Ping.lost p)

(* --- event traces: a bounded Journal of typed records, rendered by
   Probe.describe --- *)

let contains s sub =
  let n = String.length sub in
  let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

let probe_lines p =
  List.map Probe.describe (Telemetry.Journal.to_list (Probe.journal p))

let test_tracer_records_and_bounds () =
  let net = line_net 3 in
  let p = Probe.create ~journal_capacity:50 () in
  Net.set_probe net (Some p);
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:100.0 ~size:200 ~start:0.0 ~stop:1.0);
  Net.run net;
  Alcotest.(check bool) "recorded plenty" true
    (Telemetry.Journal.total (Probe.journal p) > 50);
  Alcotest.(check int) "ring bounded" 50 (List.length (probe_lines p));
  (* Lines are timestamped and chronological. *)
  let times =
    List.map (fun line -> float_of_string (List.hd (String.split_on_char ' ' line)))
      (probe_lines p)
  in
  Alcotest.(check bool) "chronological" true (List.sort compare times = times)

(* simulate --trace N keeps the newest N events at the attacker only. *)
let test_tracer_filters () =
  let out = Filename.temp_file "trace" ".out" in
  let oc = open_out out in
  let backup = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel oc) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 backup Unix.stdout;
      Unix.close backup;
      close_out oc)
    (fun () ->
      Experiments.Simulate.run
        (Experiments.Simulate.Config.make_exn ~protocol:"perlman" ~duration:6.0
           ~attacker:2 ~trace:40 Experiments.Simulate.Ring));
  let lines = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  let rec after_header = function
    | [] -> Alcotest.fail "no trace header"
    | l :: rest -> if contains l "last 40 events at router 2" then rest else after_header rest
  in
  let trace =
    List.filter (fun l -> l <> "") (after_header (String.split_on_char '\n' lines))
  in
  Alcotest.(check int) "newest 40" 40 (List.length trace);
  List.iter
    (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | _ :: hop :: _ when hop = "r2" || String.starts_with ~prefix:"r2->" hop -> ()
      | _ -> Alcotest.failf "event at another router: %s" l)
    trace

let test_tracer_marks_malice () =
  let net = line_net 3 in
  Router.set_behavior (Net.router net 1) (Core.Adversary.drop_fraction ~seed:2 0.5);
  let p = Probe.create ~journal_capacity:5000 () in
  Net.set_probe net (Some p);
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:50.0 ~size:200 ~start:0.0 ~stop:1.0);
  Net.run net;
  Alcotest.(check bool) "malicious drops visible" true
    (List.exists (fun line -> contains line "MALICIOUS-drop") (probe_lines p))

(* --- always-on counters: every outcome counted once, read by the probe --- *)

(* One run in which every counted outcome happens: RED early and forced
   drops at the congested 0->1 queue, a 0.5 s outage of 2->1,
   corruption on 2->3, a router 1 that drops a tenth of its transit, a
   router 2 that modifies and delays some packets, fragments a 1500 B
   flow at its 1200 B MTU and fabricates one packet, plus a unicast
   and a multicast packet whose TTL runs out at router 2, and two that
   router 3 cannot forward: one with no next hop and one whose next hop
   has no interface.
   [setup] runs before any traffic, after the probe is attached.
   Returns the network and the number of packets originated. *)
let all_causes_run ?(setup = ignore) ~shards ~probe () =
  let g = Gen.line ~n:4 in
  let net =
    Net.create ~seed:5 ~jitter_bound:100e-6 ~queue:(Net.Red Red.default_params)
      ~shards g
  in
  Net.set_probe net probe;
  setup net;
  let rt = Rt.compute g in
  Net.use_routing net rt;
  Router.set_forwarding (Net.router net 3) (fun ~prev:_ pkt ->
      match pkt.Packet.flow with 777 -> None | 778 -> Some 0 | _ -> Some 2);
  let group = 100 in
  Net.add_multicast_route net ~router:3 ~group ~next_hops:[ 2 ] ~local:false;
  Net.add_multicast_route net ~router:2 ~group ~next_hops:[ 1 ] ~local:true;
  let flows =
    [ Flow.cbr net ~src:0 ~dst:3 ~rate_pps:2500.0 ~size:1000 ~start:0.0 ~stop:3.0;
      Flow.cbr net ~src:3 ~dst:0 ~rate_pps:300.0 ~size:500 ~start:0.0 ~stop:3.0;
      Flow.cbr net ~src:1 ~dst:3 ~rate_pps:20.0 ~size:1500 ~start:0.0 ~stop:3.0 ]
  in
  Net.set_link_corruption net ~src:2 ~dst:3 0.05;
  Router.set_behavior (Net.router net 1) (Core.Adversary.drop_fraction ~seed:3 0.1);
  Router.set_behavior (Net.router net 2) (fun _ pkt ->
      match pkt.Packet.uid mod 97 with
      | 0 -> Router.Modify 7L
      | 1 -> Router.Delay 0.002
      | _ -> Router.Forward);
  Router.set_mtu (Net.router net 2) (Some 1200);
  let sim = Net.sim net in
  let packet ~src ~dst ~flow ?ttl () =
    Packet.make ~sim ~src ~dst ~flow ~size:100 ?ttl Packet.Udp
  in
  Sim.schedule sim ~delay:0.5 (fun () ->
      Router.fabricate (Net.router net 2) ~next:1 (packet ~src:3 ~dst:0 ~flow:776 ());
      List.iter (Net.originate net)
        [ packet ~src:3 ~dst:0 ~flow:779 ~ttl:1 ();
          packet ~src:3 ~dst:group ~flow:780 ~ttl:1 ();
          packet ~src:3 ~dst:0 ~flow:777 ();
          packet ~src:3 ~dst:0 ~flow:778 () ]);
  Sim.schedule sim ~delay:1.0 (fun () -> Net.fail_link net ~src:2 ~dst:1);
  Sim.schedule sim ~delay:1.5 (fun () -> Net.restore_link net ~src:2 ~dst:1);
  Net.run ~until:3.5 net;
  (net, List.fold_left (fun acc f -> acc + Flow.sent f) 4 flows)

let counter_totals net =
  let on_ifaces f = List.fold_left (fun acc i -> acc + f i) 0 (Net.ifaces net) in
  let on_routers f =
    List.fold_left (fun acc r -> acc + f r) 0 (List.init 4 (Net.router net))
  in
  [ ("congestion", on_ifaces Iface.congestion_drops);
    ("red_early", on_ifaces Iface.red_early_drops);
    ("link_down", on_ifaces Iface.link_down_drops);
    ("corrupted", on_ifaces Iface.corrupted_drops);
    ("malicious", on_routers Router.malicious_drops);
    ("no_route", on_routers Router.no_route_drops);
    ("ttl_expired", on_routers Router.ttl_expired_drops);
    ("enqueued", on_ifaces Iface.enqueued_packets);
    ("hops", on_ifaces Iface.delivered_packets);
    ("delivered", on_routers Router.delivered_packets);
    ("originated", on_routers Router.originated_packets);
    ("fabricated", on_routers Router.fabricated_packets);
    ("fragmented", on_routers Router.fragmented_packets);
    ("fragments", on_routers Router.fragments_created);
    ("modified", on_routers Router.modified_packets);
    ("delayed", on_routers Router.delayed_packets);
    ("dropped", on_ifaces Iface.dropped_packets) ]

(* The independent reference: every wire event a listener sees, tallied
   by kind (and malice by router). *)
let subscribe_tally tally net =
  let bump key n =
    Hashtbl.replace tally key (n + Option.value ~default:0 (Hashtbl.find_opt tally key))
  in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with
      | Iface.Enqueued _ -> bump "enqueued" 1
      | Iface.Drop_congestion _ -> bump "congestion" 1
      | Iface.Drop_red_early _ -> bump "red_early" 1
      | Iface.Drop_link_down _ -> bump "link_down" 1
      | Iface.Drop_corrupted _ -> bump "corrupted" 1
      | Iface.Transmit_start _ -> ()
      | Iface.Delivered _ -> bump "hops" 1);
  Net.subscribe_router net (fun ev ->
      let malice key =
        bump key 1;
        bump (Printf.sprintf "malice r%d" ev.Net.router) 1
      in
      match ev.Net.kind with
      | Router.Malicious_drop _ -> malice "malicious"
      | Router.Malicious_modify _ -> malice "modified"
      | Router.Malicious_delay _ -> malice "delayed"
      | Router.Fabricated _ -> malice "fabricated"
      | Router.Fragmented { fragments; _ } ->
          bump "fragmented" 1;
          bump "fragments" fragments
      | Router.No_route _ -> bump "no_route" 1
      | Router.Ttl_expired _ -> bump "ttl_expired" 1
      | Router.Delivered_local _ -> bump "delivered" 1)

let probe_counter p name labels =
  match
    List.find_map
      (fun (n, _, l, sample) ->
        match sample with
        | Telemetry.Metrics.Counter_sample c when n = name && l = labels -> Some c
        | _ -> None)
      (Telemetry.Metrics.snapshot (Probe.registry p))
  with
  | Some c -> c
  | None -> Alcotest.failf "no counter %s" name

(* Each counted outcome, with the probe series that views it. *)
let probe_series =
  List.map
    (fun c -> (c, ("pkt_dropped_total", [ ("cause", c) ])))
    [ "congestion"; "red_early"; "link_down"; "corrupted"; "malicious"; "no_route";
      "ttl_expired" ]
  @ [ ("enqueued", ("pkt_enqueued_total", []));
      ("hops", ("pkt_forwarded_hops_total", []));
      ("delivered", ("pkt_delivered_total", []));
      ("originated", ("pkt_injected_total", []));
      ("fabricated", ("pkt_fabricated_total", []));
      ("fragmented", ("pkt_fragmented_total", []));
      ("fragments", ("pkt_fragments_total", []));
      ("modified", ("malicious_modify_total", []));
      ("delayed", ("malicious_delay_total", [])) ]

let check_counters_agree shards () =
  let p = Probe.create () in
  let tally = Hashtbl.create 16 in
  let net, originated =
    all_causes_run ~setup:(subscribe_tally tally) ~shards ~probe:(Some p) ()
  in
  Hashtbl.replace tally "originated" originated;
  let totals = counter_totals net in
  let seen key = Option.value ~default:0 (Hashtbl.find_opt tally key) in
  List.iter
    (fun (key, (name, labels)) ->
      let mine = List.assoc key totals in
      Alcotest.(check bool) (key ^ " happened") true (mine > 0);
      Alcotest.(check int) (key ^ " vs tally") (seen key) mine;
      Alcotest.(check int) (key ^ " vs probe") (probe_counter p name labels) mine)
    probe_series;
  List.iter
    (fun r ->
      let key = Printf.sprintf "malice r%d" r in
      Alcotest.(check bool) (key ^ " happened") true (seen key > 0);
      Alcotest.(check int) key (seen key)
        (probe_counter p "malice_events_total" [ ("router", string_of_int r) ]))
    [ 1; 2 ];
  Alcotest.(check int) "dropped_packets is the per-cause sum"
    (List.fold_left
       (fun acc c -> acc + List.assoc c totals)
       0 [ "congestion"; "red_early"; "link_down"; "corrupted" ])
    (List.assoc "dropped" totals)

let test_counters_unobserved () =
  (* The classic engine runs the same events with or without a probe,
     and the counters do not depend on anything observing them. *)
  let observed, _ = all_causes_run ~shards:0 ~probe:(Some (Probe.create ())) () in
  let bare, _ = all_causes_run ~shards:0 ~probe:None () in
  Alcotest.(check (list (pair string int))) "same counts" (counter_totals observed)
    (counter_totals bare)

(* The probe's series are views over the whole run, and observation
   elision is fixed before it starts: attaching (or detaching) a probe
   once events have run is refused. *)
let test_set_probe_after_run () =
  List.iter
    (fun shards ->
      let g = Gen.line ~n:3 in
      let net = Net.create ~shards g in
      Net.use_routing net (Rt.compute g);
      Net.set_probe net (Some (Probe.create ()));
      ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:100.0 ~size:200 ~start:0.0 ~stop:0.5);
      Net.run ~until:1.0 net;
      Alcotest.check_raises
        (Printf.sprintf "K=%d attach" shards)
        (Invalid_argument "Net.set_probe: the engine has already processed events")
        (fun () -> Net.set_probe net (Some (Probe.create ())));
      Alcotest.check_raises
        (Printf.sprintf "K=%d detach" shards)
        (Invalid_argument "Net.set_probe: the engine has already processed events")
        (fun () -> Net.set_probe net None))
    [ 0; 2 ]

(* --- TCP --- *)

let test_tcp_completes_transfer () =
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:200_000 () in
  Net.run ~until:60.0 net;
  Alcotest.(check bool) "established" true (Tcp.established conn);
  Alcotest.(check bool) "finished" true (Tcp.finished conn);
  Alcotest.(check int) "all bytes" 200_000 (Tcp.bytes_acked conn)

let test_tcp_goodput_bounded () =
  (* Bottleneck 1.25e6 B/s; goodput must be below it but reasonably high. *)
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:2_000_000 () in
  Net.run ~until:120.0 net;
  Alcotest.(check bool) "finished" true (Tcp.finished conn);
  match Tcp.finish_time conn with
  | None -> Alcotest.fail "finish time missing"
  | Some t ->
      (* The line-rate lower bound is 1.6 s; require better than 50%
         utilization. *)
      Alcotest.(check bool) (Printf.sprintf "finished in %.1fs" t) true (t < 3.2)

let test_tcp_fills_bottleneck_queue () =
  (* A long-lived TCP should create congestion drops at the bottleneck —
     the phenomenon that makes naive loss-counting ambiguous (Ch. 6). *)
  let g = G.create ~n:3 in
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 1;
  G.add_duplex g ~bw:1.25e6 ~delay:0.010 1 2;
  let net = Net.create ~jitter_bound:0.0 ~queue:(Net.Droptail 32000) g in
  Net.use_routing net (Rt.compute g);
  let congestion = ref 0 in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with Iface.Drop_congestion _ -> incr congestion | _ -> ());
  let conn = Tcp.connect net ~src:0 ~dst:2 () in
  Net.run ~until:30.0 net;
  Alcotest.(check bool) "congestion losses occurred" true (!congestion > 0);
  Alcotest.(check bool) "sender retransmitted" true (Tcp.retransmits conn > 0);
  Alcotest.(check bool) "still made progress" true (Tcp.bytes_acked conn > 1_000_000)

let test_tcp_syn_drop_delays_connection () =
  (* Attack 4: dropping the first SYN costs the victim the 3 s initial
     timeout — the disproportionate-impact example of §6.1.1. *)
  let net = line_net 3 in
  let dropped_first = ref false in
  Router.set_behavior (Net.router net 1) (fun ctx pkt ->
      match ctx.Router.prev with
      | Some _ when Packet.is_syn pkt && not !dropped_first ->
          dropped_first := true;
          Router.Drop
      | _ -> Router.Forward);
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:10_000 () in
  Net.run ~until:30.0 net;
  (match Tcp.connect_time conn with
  | Some t -> Alcotest.(check bool) (Printf.sprintf "connect at %.2fs" t) true (t >= 3.0)
  | None -> Alcotest.fail "never connected");
  Alcotest.(check int) "one syn retry" 1 (Tcp.syn_retries conn);
  Alcotest.(check bool) "transfer still finished" true (Tcp.finished conn)

let test_tcp_selective_drops_collapse_goodput () =
  (* Dropping 20% of one flow's data packets (attack 1) wrecks its
     throughput relative to an untouched flow. *)
  let run ~attack =
    let net = line_net 3 in
    let count = ref 0 in
    if attack then
      Router.set_behavior (Net.router net 1) (fun ctx pkt ->
          match (ctx.Router.prev, pkt.Packet.proto) with
          | Some _, Packet.Tcp h when h.Packet.seq >= 0 ->
              incr count;
              if !count mod 5 = 0 then Router.Drop else Router.Forward
          | _ -> Router.Forward);
    let conn = Tcp.connect net ~src:0 ~dst:2 () in
    Net.run ~until:20.0 net;
    Tcp.bytes_acked conn
  in
  let clean = run ~attack:false and attacked = run ~attack:true in
  Alcotest.(check bool)
    (Printf.sprintf "attacked %d << clean %d" attacked clean)
    true
    (float_of_int attacked < 0.25 *. float_of_int clean)

let test_tcp_two_flows_share () =
  let g = G.create ~n:4 in
  (* 0 and 1 feed 2; bottleneck 2 -> 3. *)
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 2;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 1 2;
  G.add_duplex g ~bw:1.25e6 ~delay:0.005 2 3;
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let c1 = Tcp.connect net ~src:0 ~dst:3 () in
  let c2 = Tcp.connect net ~src:1 ~dst:3 () in
  Net.run ~until:30.0 net;
  let b1 = Tcp.bytes_acked c1 and b2 = Tcp.bytes_acked c2 in
  Alcotest.(check bool) "both progress" true (b1 > 100_000 && b2 > 100_000);
  let ratio = float_of_int (max b1 b2) /. float_of_int (max 1 (min b1 b2)) in
  Alcotest.(check bool) (Printf.sprintf "fairness ratio %.2f" ratio) true (ratio < 4.0)

let test_link_failure () =
  let net = line_net 3 in
  let down = ref 0 and delivered = ref 0 in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with Iface.Drop_link_down _ -> incr down | _ -> ());
  Net.attach_app net ~node:2 (fun _ -> incr delivered);
  let f = Flow.cbr net ~src:0 ~dst:2 ~rate_pps:10.0 ~size:200 ~start:0.0 ~stop:3.0 in
  let sim = Net.sim net in
  Sim.schedule sim ~delay:1.0 (fun () -> Net.fail_link net ~src:1 ~dst:2);
  Sim.schedule sim ~delay:2.0 (fun () -> Net.restore_link net ~src:1 ~dst:2);
  Net.run net;
  Alcotest.(check bool) "packets lost while down" true (!down > 5);
  Alcotest.(check int) "conservation" (Flow.sent f) (!delivered + !down)

let test_link_failure_buffered_resume () =
  (* Packets already queued when the link fails are transmitted after
     restoration. *)
  let g = G.create ~n:2 in
  G.add_link g ~bw:1.25e6 ~delay:0.001 0 1;
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let delivered = ref 0 in
  Net.attach_app net ~node:1 (fun _ -> incr delivered);
  let sim = Net.sim net in
  (* Burst of 10 packets at t=0; link fails almost immediately. *)
  for _ = 1 to 10 do
    Net.originate net (Packet.make ~sim ~src:0 ~dst:1 ~flow:1 ~size:1000 Packet.Udp)
  done;
  Sim.schedule sim ~delay:0.001 (fun () -> Net.fail_link net ~src:0 ~dst:1);
  Sim.schedule sim ~delay:1.0 (fun () -> Net.restore_link net ~src:0 ~dst:1);
  Net.run net;
  Alcotest.(check int) "all eventually delivered" 10 !delivered

let test_tcp_tiny_transfer () =
  (* Less than one MSS: a single segment round-trips. *)
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:100 () in
  Net.run ~until:10.0 net;
  Alcotest.(check bool) "finished" true (Tcp.finished conn);
  Alcotest.(check int) "bytes" 100 (Tcp.bytes_acked conn)

let test_tcp_exact_mss_boundary () =
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~mss:500 ~total_bytes:1500 () in
  Net.run ~until:10.0 net;
  Alcotest.(check bool) "finished" true (Tcp.finished conn);
  Alcotest.(check int) "bytes" 1500 (Tcp.bytes_acked conn)

let test_tcp_stop_time () =
  (* A stop time freezes the offered data but does not corrupt state. *)
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~stop:1.0 () in
  Net.run ~until:10.0 net;
  let acked = Tcp.bytes_acked conn in
  Alcotest.(check bool) "made some progress" true (acked > 0);
  Alcotest.(check bool) "then stopped" true
    (acked <= int_of_float (1.5 *. 1.25e6))

let test_tcp_rto_backoff_under_blackhole () =
  (* A total blackhole mid-transfer: the sender keeps retrying with
     exponential backoff and never finishes, but also never runs away. *)
  let net = line_net 3 in
  let started = ref false in
  Router.set_behavior (Net.router net 1) (fun ctx _ ->
      match ctx.Router.prev with
      | Some _ when !started -> Router.Drop
      | _ -> Router.Forward);
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:5_000_000 () in
  Sim.schedule (Net.sim net) ~delay:0.5 (fun () -> started := true);
  Net.run ~until:120.0 net;
  Alcotest.(check bool) "not finished" false (Tcp.finished conn);
  Alcotest.(check bool) "timeouts occurred" true (Tcp.timeouts conn > 3);
  (* Backoff keeps the retry count modest over 2 minutes. *)
  Alcotest.(check bool) "bounded retries" true (Tcp.retransmits conn < 200)

let test_tcp_receiver_reordering () =
  (* Random 200 ms delays reorder segments; the out-of-order buffer still
     reassembles the byte stream completely. *)
  let net = line_net 3 in
  Router.set_behavior (Net.router net 1)
    (Core.Adversary.delay_fraction ~seed:4 ~delay:0.2 0.2);
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:200_000 () in
  Net.run ~until:120.0 net;
  Alcotest.(check bool) "finished despite reordering" true (Tcp.finished conn);
  Alcotest.(check int) "exact bytes" 200_000 (Tcp.bytes_acked conn)

let test_net_determinism () =
  (* Identical seeds produce identical traces. *)
  let run () =
    let net = line_net ~jitter_bound:100e-6 3 in
    let events = ref 0 in
    Net.subscribe_iface net (fun _ -> incr events);
    let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:100_000 () in
    Net.run ~until:20.0 net;
    (!events, Tcp.bytes_acked conn, Sim.events_processed (Net.sim net))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical" true (a = b)

let () =
  Alcotest.run "netsim"
    [ ( "sim",
        [ Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "until" `Quick test_sim_until;
          Alcotest.test_case "nested" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "rejects past" `Quick test_sim_rejects_past;
          Alcotest.test_case "fresh ids" `Quick test_sim_fresh_ids ] );
      ( "queues",
        [ Alcotest.test_case "fifo capacity" `Quick test_fifo_capacity;
          Alcotest.test_case "fifo order" `Quick test_fifo_order;
          Alcotest.test_case "red below min" `Quick test_red_below_min_never_drops;
          Alcotest.test_case "red between thresholds" `Quick test_red_drops_between_thresholds;
          Alcotest.test_case "red pure functions" `Quick test_red_pure_functions;
          Alcotest.test_case "gentle ramp" `Quick test_red_gentle_ramp ] );
      ( "iface",
        [ Alcotest.test_case "timing" `Quick test_iface_timing;
          Alcotest.test_case "serialization" `Quick test_iface_serialization ] );
      ( "network",
        [ Alcotest.test_case "end to end" `Quick test_net_end_to_end;
          Alcotest.test_case "congestion drops" `Quick test_net_congestion_drops;
          Alcotest.test_case "malicious drops" `Quick test_net_malicious_drop_counted;
          Alcotest.test_case "modification" `Quick test_net_modification;
          Alcotest.test_case "ttl expiry" `Quick test_net_ttl_expiry;
          Alcotest.test_case "fabrication" `Quick test_net_fabrication;
          Alcotest.test_case "policy forwarding" `Quick test_net_policy_forwarding;
          Alcotest.test_case "link failure" `Quick test_link_failure;
          Alcotest.test_case "failure resume" `Quick test_link_failure_buffered_resume;
          Alcotest.test_case "determinism" `Quick test_net_determinism ] );
      ( "flows",
        [ Alcotest.test_case "cbr count" `Quick test_cbr_count;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
          Alcotest.test_case "ping rtt" `Quick test_ping_rtt;
          Alcotest.test_case "ping loss" `Quick test_ping_loss ] );
      ( "tracer",
        [ Alcotest.test_case "records and bounds" `Quick test_tracer_records_and_bounds;
          Alcotest.test_case "filters" `Quick test_tracer_filters;
          Alcotest.test_case "marks malice" `Quick test_tracer_marks_malice ] );
      ( "counters",
        [ Alcotest.test_case "agree with probe K=0" `Quick (check_counters_agree 0);
          Alcotest.test_case "agree with probe K=2" `Quick (check_counters_agree 2);
          Alcotest.test_case "unobserved" `Quick test_counters_unobserved;
          Alcotest.test_case "set_probe refused after events" `Quick
            test_set_probe_after_run ] );
      ( "tcp",
        [ Alcotest.test_case "completes" `Quick test_tcp_completes_transfer;
          Alcotest.test_case "goodput" `Quick test_tcp_goodput_bounded;
          Alcotest.test_case "fills bottleneck" `Quick test_tcp_fills_bottleneck_queue;
          Alcotest.test_case "syn drop" `Quick test_tcp_syn_drop_delays_connection;
          Alcotest.test_case "selective drops" `Quick test_tcp_selective_drops_collapse_goodput;
          Alcotest.test_case "two flows share" `Quick test_tcp_two_flows_share;
          Alcotest.test_case "tiny transfer" `Quick test_tcp_tiny_transfer;
          Alcotest.test_case "mss boundary" `Quick test_tcp_exact_mss_boundary;
          Alcotest.test_case "stop time" `Quick test_tcp_stop_time;
          Alcotest.test_case "rto backoff" `Quick test_tcp_rto_backoff_under_blackhole;
          Alcotest.test_case "receiver reordering" `Quick test_tcp_receiver_reordering ] ) ]
