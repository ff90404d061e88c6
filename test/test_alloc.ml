(* Allocation-regression suite (@alloc).

   The zero-allocation work pins the simulator's steady-state cost: the
   ring8 reference scenario recorded 62.97 minor words per event at the
   seed; the flat event heap, ring queues and packet pooling hold it
   around 11.  The ceilings below sit between the two with generous
   slack for environment differences — they catch a reintroduced
   per-event box, not run-to-run noise ([Gc.minor_words] deltas are a
   deterministic count of allocation, not a timing).

   The suite also proves the pool actually recycles on the reference
   scenario, that pooled and unpooled runs execute the identical event
   set, that a probed run in steady state journals without allocating
   or promoting and keeps the pool live, and that poison mode catches an
   injected use-after-free and a double release at the pool boundary
   and leaves a probed run's exports unchanged. *)

open Netsim

(* The ring8 reference scenario: six crossing CBR flows and one TCP
   connection over [horizon] simulated seconds. *)
let ring8_net ?probe ?(poison = false) ~pooling ~horizon () =
  let g = Topology.Generate.ring ~n:8 in
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 ~pooling ~poison g in
  if probe <> None then Net.set_probe net probe;
  Net.use_routing net (Topology.Routing.compute g);
  List.iter
    (fun (s, d) ->
      ignore
        (Flow.cbr net ~src:s ~dst:d ~rate_pps:200.0 ~size:500 ~start:0.0
           ~stop:horizon))
    [ (0, 4); (4, 0); (1, 5); (5, 1); (2, 6); (6, 2) ];
  ignore (Tcp.connect net ~src:0 ~dst:3 ());
  net

(* Minor and promoted words allocated per event over the tail of a
   ring8 reference run: the first simulated second is warm-up (pools
   filling, rings and journals growing and wrapping), the remaining four
   are the steady state the budgets apply to. *)
let ring8_words ?probe ~pooling () =
  let horizon = 5.0 in
  let net = ring8_net ?probe ~pooling ~horizon () in
  Net.run ~until:1.0 net;
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let e0 = Net.events_processed net in
  Net.run ~until:horizon net;
  let m1 = Gc.minor_words () in
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  let events = float_of_int (max 1 (Net.events_processed net - e0)) in
  ((m1 -. m0) /. events, (p1 -. p0) /. events, Net.events_processed net,
   Net.pool_stats net)

let ring8_run ~pooling =
  let minor, _, events, stats = ring8_words ~pooling () in
  (minor, events, stats)

let seed_words_per_event = 62.97

let test_steady_state_budget () =
  let unpooled, events_unpooled, _ = ring8_run ~pooling:false in
  let pooled, events_pooled, stats = ring8_run ~pooling:true in
  (* Identical scenario, identical event set: pooling must be invisible
     to the simulation itself. *)
  Alcotest.(check int)
    "pooled run executes the identical event count" events_unpooled
    events_pooled;
  Alcotest.(check bool)
    (Printf.sprintf "unpooled %.2f w/ev under 24.0 ceiling" unpooled)
    true (unpooled < 24.0);
  Alcotest.(check bool)
    (Printf.sprintf "pooled %.2f w/ev under 20.0 ceiling" pooled)
    true (pooled < 20.0);
  Alcotest.(check bool)
    (Printf.sprintf "pooled %.2f w/ev at least halves the seed's %.2f" pooled
       seed_words_per_event)
    true
    (pooled < seed_words_per_event /. 2.0);
  (* The budget must be met by recycling, not by a quiet pool. *)
  Alcotest.(check bool)
    (Printf.sprintf "pool recycled %d of %d acquisitions" stats.Pool.recycled
       (stats.Pool.recycled + stats.Pool.fresh))
    true
    (stats.Pool.recycled > 10 * stats.Pool.fresh)

let test_pool_inert_when_observed () =
  (* Pooling switches itself off exactly where an observation may
     outlive the packet: a data-plane listener (its callback may keep
     the packet) and the sharded engine with a probe (buffered [Obs_*]
     records hold packets until the epoch flush).  A probe on the
     classic engine copies what it journals, so recycling stays live. *)
  let g = Topology.Generate.ring ~n:4 in
  let net ?shards () = Net.create ~seed:1 ~pooling:true ?shards g in
  let n1 = net () in
  Net.subscribe_iface n1 (fun _ -> ());
  Alcotest.(check bool) "pooling suppressed under an iface listener" false
    (Net.pooling_active n1);
  let n2 = net () in
  Net.subscribe_router n2 (fun _ -> ());
  Alcotest.(check bool) "pooling suppressed under a router listener" false
    (Net.pooling_active n2);
  let n3 = net ~shards:2 () in
  Net.set_probe n3 (Some (Probe.create ()));
  Alcotest.(check bool) "pooling suppressed under a sharded probe" false
    (Net.pooling_active n3);
  let n4 = net () in
  Net.set_probe n4 (Some (Probe.create ()));
  Alcotest.(check bool) "pooling live under a classic-engine probe" true
    (Net.pooling_active n4);
  Alcotest.(check bool) "pooling live unobserved" true (Net.pooling_active (net ()))

(* A probed ring8 run in steady state, after its journal has wrapped:
   every wire event rewrites the snapshot it evicts, so journaling adds
   no allocation and no promotion, and the pool recycles under the
   probe.  While journal records held their packets, this run cost
   ~26 minor and ~6.5 promoted words per event. *)
let test_probed_steady_state_budget () =
  let minor_ceiling = 20.0 and promoted_ceiling = 1.0 in
  let probe = Probe.create ~journal_capacity:4096 () in
  let minor, promoted, _, stats = ring8_words ~probe ~pooling:true () in
  let j = Probe.journal probe in
  Alcotest.(check bool) "the journal wrapped during warm-up" true
    (Telemetry.Journal.dropped j > 4096);
  Alcotest.(check bool)
    (Printf.sprintf "probed %.2f minor w/ev under %.1f ceiling" minor
       minor_ceiling)
    true (minor < minor_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "probed %.3f promoted w/ev under %.1f ceiling" promoted
       promoted_ceiling)
    true
    (promoted < promoted_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "pool recycled %d of %d acquisitions under the probe"
       stats.Pool.recycled (stats.Pool.recycled + stats.Pool.fresh))
    true
    (stats.Pool.recycled > 10 * stats.Pool.fresh)

(* Poison mode under a probe: every released packet is stamped with a
   sentinel uid and zero size, so a probe that read a packet after its
   release would journal or count the poison.  Router 2 drops every
   fifth packet and link 3->4 is down for half a second, so the drop
   paths release too.  The pooled, poisoned run must export exactly
   what the unpooled run does. *)
let test_probed_poison_matches_unpooled () =
  let observe ~pooling =
    let probe = Probe.create ~journal_capacity:4096 () in
    let net = ring8_net ~probe ~pooling ~poison:pooling ~horizon:3.0 () in
    Router.set_behavior (Net.router net 2) (fun _ pkt ->
        if pkt.Packet.uid mod 5 = 0 then Router.Drop else Router.Forward);
    Sim.schedule (Net.sim net) ~delay:1.5 (fun () ->
        Net.fail_link net ~src:3 ~dst:4);
    Sim.schedule (Net.sim net) ~delay:2.0 (fun () ->
        Net.restore_link net ~src:3 ~dst:4);
    Net.run ~until:3.0 net;
    let path = Filename.temp_file "alloc_journal" ".jsonl" in
    Out_channel.with_open_bin path (Probe.write_journal probe);
    let jsonl = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    ( Net.pooling_active net,
      jsonl,
      Probe.conservation probe,
      Telemetry.Export.to_string
        (Telemetry.Export.json_of_registry (Probe.registry probe)) )
  in
  let live, jsonl, cons, metrics = observe ~pooling:true in
  let _, jsonl0, cons0, metrics0 = observe ~pooling:false in
  Alcotest.(check bool) "pooling live under the probe" true live;
  Alcotest.(check bool) "journal is non-trivial" true (String.length jsonl > 10_000);
  Alcotest.(check string) "journal JSONL equals the unpooled run's"
    (Digest.to_hex (Digest.string jsonl0))
    (Digest.to_hex (Digest.string jsonl));
  Alcotest.(check bool) "conservation equals the unpooled run's" true (cons = cons0);
  Alcotest.(check bool) "the run dropped packets" true (cons.Probe.total_dropped > 100);
  Alcotest.(check string) "metrics equal the unpooled run's" metrics0 metrics

(* Poison mode: a released packet is stamped loudly wrong, so a stale
   holder (the injected use-after-free) reads the sentinel instead of
   plausible data, and a second release trips at the pool boundary. *)
let test_poison_catches_use_after_free () =
  let pool = Pool.create ~poison:true () in
  let p =
    Pool.acquire pool ~now:0.0 ~uid:7 ~src:0 ~dst:1 ~flow:3 ~size:500
      Packet.Udp
  in
  let stale = p in
  (* The injected bug: [stale] outlives the packet's network lifetime. *)
  Pool.release pool p;
  Alcotest.(check bool) "stale reference reads poison" true
    (Pool.is_poisoned stale);
  Alcotest.(check int) "poisoned size is zero" 0 stale.Packet.size;
  Alcotest.check_raises "double release detected"
    (Failure "Pool.release: double release (packet already in the pool)")
    (fun () -> Pool.release pool p);
  (* Reacquiring heals the poison: the recycled record is fresh. *)
  let q =
    Pool.acquire pool ~now:1.0 ~uid:8 ~src:1 ~dst:0 ~flow:3 ~size:200
      Packet.Udp
  in
  Alcotest.(check bool) "recycled packet is clean" false (Pool.is_poisoned q);
  Alcotest.(check bool) "recycled the same record" true (q == stale);
  let s = Pool.stats pool in
  Alcotest.(check int) "one fresh, one recycled" 1 s.Pool.fresh;
  Alcotest.(check int) "recycled count" 1 s.Pool.recycled

let test_pool_grows_and_counts () =
  let pool = Pool.create () in
  let mk uid =
    Pool.acquire pool ~now:0.0 ~uid ~src:0 ~dst:1 ~flow:1 ~size:100 Packet.Udp
  in
  let batch = List.init 200 mk in
  List.iter (Pool.release pool) batch;
  let s = Pool.stats pool in
  Alcotest.(check int) "all fresh on a dry pool" 200 s.Pool.fresh;
  Alcotest.(check int) "all returned" 200 s.Pool.released;
  Alcotest.(check int) "all available" 200 s.Pool.available;
  let again = List.init 200 (fun i -> mk (1000 + i)) in
  let s2 = Pool.stats pool in
  Alcotest.(check int) "all served from the freelist" 200 s2.Pool.recycled;
  Alcotest.(check int) "pool drained" 0 s2.Pool.available;
  ignore again

(* Span-record recycling: once the trace ring has wrapped, each hop
   span mutates the evicted record in place instead of allocating a
   fresh record plus a Complete block.  The residual per-hop cost is
   the boxed float store into the mixed record's [time] field plus
   [fresh_id] bookkeeping — well under the ~24 words an unrecycled hop
   entry costs.  [Gc.minor_words] deltas are deterministic counts. *)
let test_span_recycling () =
  let capacity = 1024 in
  let hop sp i =
    ignore
      (Telemetry.Span.hop_span sp ~trace:1 ~name:"queue"
         ~pid:Telemetry.Span.network_pid ~tid:0 ~start:(float_of_int i *. 1e-6)
         ~finish:((float_of_int i +. 0.5) *. 1e-6)
         ~router:(i mod 8)
         ~next:((i + 1) mod 8)
         ~pkt:i)
  in
  let n = 10_000 in
  let words_per_hop ~wrapped =
    (* When [wrapped], fill past capacity first so every measured hop
       recycles; otherwise size the ring so none does. *)
    let cap = if wrapped then capacity else capacity + (3 * n) in
    let sp = Telemetry.Span.create ~capacity:cap () in
    for i = 0 to (2 * capacity) - 1 do
      hop sp i
    done;
    Gc.full_major ();
    let m0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      hop sp (2 * capacity + i)
    done;
    (Gc.minor_words () -. m0) /. float_of_int n
  in
  let fresh = words_per_hop ~wrapped:false in
  let recycled = words_per_hop ~wrapped:true in
  (* The 14-word entry record plus its Complete block no longer
     allocate (22 -> 8 w/hop measured); what remains is boxed-float
     traffic at the call boundary, identical in both paths. *)
  Alcotest.(check bool)
    (Printf.sprintf "recycled %.2f w/hop saves >= 12 words vs fresh %.2f"
       recycled fresh)
    true
    (recycled <= fresh -. 12.0);
  Alcotest.(check bool)
    (Printf.sprintf "recycled residual %.2f w/hop under 10.0" recycled)
    true (recycled < 10.0)

(* The per-packet fingerprint kernel keeps its state unboxed: a call
   allocates only its boxed [int64] result (3 words: header, custom
   operations, payload).  Boxed state costs hundreds of words per call,
   so a regression fails by a wide margin on any host. *)
let test_siphash_allocates_only_result () =
  let key = Crypto_sim.Siphash.key_of_string "alloc" in
  let s40 = String.make 40 'a' and s1500 = String.make 1500 'b' in
  let words = List.init 7 Int64.of_int in
  let result_words = 3.0 in
  let n = 1000 in
  let per_call name f =
    ignore (Sys.opaque_identity (f ()));
    let m0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let w = (Gc.minor_words () -. m0) /. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words/call <= %.0f" name w result_words)
      true (w <= result_words)
  in
  per_call "hash 40 B" (fun () -> Crypto_sim.Siphash.hash key s40);
  per_call "hash 1500 B" (fun () -> Crypto_sim.Siphash.hash key s1500);
  per_call "hash_int64s 7 words" (fun () -> Crypto_sim.Siphash.hash_int64s key words)

let () =
  Alcotest.run "alloc"
    [ ( "budget",
        [ Alcotest.test_case "ring8 steady state under ceiling" `Quick
            test_steady_state_budget;
          Alcotest.test_case "pooling inert when observed" `Quick
            test_pool_inert_when_observed;
          Alcotest.test_case "probed ring8 steady state under ceiling" `Quick
            test_probed_steady_state_budget;
          Alcotest.test_case "span recycling after ring wrap" `Quick
            test_span_recycling;
          Alcotest.test_case "siphash allocates only its result" `Quick
            test_siphash_allocates_only_result ] );
      ( "poison",
        [ Alcotest.test_case "use-after-free and double release" `Quick
            test_poison_catches_use_after_free;
          Alcotest.test_case "freelist growth and counters" `Quick
            test_pool_grows_and_counts;
          Alcotest.test_case "probed pooled run matches unpooled" `Quick
            test_probed_poison_matches_unpooled ] ) ]
