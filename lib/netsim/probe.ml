(* A wire event as a flat snapshot: the few ints the renderers need,
   copied out of the packet when the event happens, so the journal never
   keeps a packet alive (and never promotes one).  Small ints share a
   word, two to an immediate (see [pack]); the two floats live in their
   own float-only record, so rewriting a recycled slot stores unboxed
   doubles and allocates nothing.  [code] (inside [shape]) is the event
   kind: link outcomes 0-6, router outcomes 8-15. *)
type stamp = { mutable at : float; mutable delay : float }

type wire = {
  stamp : stamp;
  mutable uid : int;
  mutable flow : int;
  mutable hop : int;    (* router | next hop (-1 on router events without one) *)
  mutable ends : int;   (* packet src | dst *)
  mutable shape : int;  (* packet size | fragments lsl 4 lor code *)
  mutable proto : Packet.proto;
}

type verdict = {
  time : float;
  detector : string;
  subject : int option;
  suspects : int list;
  confidence : float option;
  alarm : bool;
  detail : string;
}

type fault_record = {
  time : float;
  kind : string;
  routers : int list;
  detail : string;
}

type event =
  | Wire of wire
  | Verdict of verdict
  | Fault of fault_record

type t = {
  registry : Telemetry.Metrics.t;
  journal : event Telemetry.Journal.t;
  (* The packet series are views: each registry counter is paired with
     the per-router reading it mirrors, summed over the attached
     network's routers whenever the registry or conservation is read.
     Nothing on the wire path counts. *)
  views : (Telemetry.Metrics.counter * (Router.t -> int)) list;
  mutable routers : Router.t array;
  verdicts : Telemetry.Metrics.counter;
  alarms : Telemetry.Metrics.counter;
  faults_injected : Telemetry.Metrics.counter;
  pkt_size : Telemetry.Metrics.histogram;
  delivery_latency : Telemetry.Metrics.histogram;
  mutable first_alarm_time : float option;
  (* Verdicts are rare and load-bearing (the robustness oracle scores
     them after the run), so they are retained here in full even when
     the bounded journal has long since evicted them. *)
  mutable verdicts_rev : verdict list;
  (* Span bridge (optional).  Traced packets open per-hop spans keyed by
     (uid, router, next) — multicast clones share a uid but traverse
     distinct (router, next) edges, so the keys stay unique per branch. *)
  (* Pending per-hop span windows live on the packet itself
     ([Packet.q_start] / [Packet.tx_start]): a packet occupies at most
     one (router, next) edge at a time, so the fields replace the
     (uid, router, next)-keyed tables — and their per-event tuple keys —
     the fast path used to allocate.  Multicast clones and fragments are
     fresh records, so branches never share a window. *)
  tracer : Telemetry.Span.t option;
  named_tracks : (int, unit) Hashtbl.t;
  (* Always-on stats collector, created by [attach] and fed from every
     probe hook: wire events in the merged (time, rank) order, verdicts,
     round durations and faults as they are recorded. *)
  mutable stats : Stats.t option;
}

let iface_packet = function
  | Iface.Enqueued p | Iface.Drop_congestion p | Iface.Drop_red_early p
  | Iface.Drop_link_down p | Iface.Drop_corrupted p | Iface.Transmit_start p
  | Iface.Delivered p ->
      p

let router_packet = function
  | Router.Malicious_drop { pkt; _ }
  | Router.Malicious_modify { pkt; _ }
  | Router.Malicious_delay { pkt; _ }
  | Router.Fabricated { pkt; _ } ->
      pkt
  | Router.Fragmented { original; _ } -> original
  | Router.No_route pkt | Router.Ttl_expired pkt | Router.Delivered_local pkt -> pkt

(* --- wire snapshots ---------------------------------------------------- *)

(* Two ints in [-2^30, 2^30) share one immediate: [hi] above bit 31,
   [lo] in the low 31 bits, sign-extended again on the way out. *)
let pack hi lo =
  if (hi lsl 32) asr 32 <> hi || (lo lsl 32) asr 32 <> lo then
    invalid_arg "Probe: wire field outside [-2^30, 2^30)";
  (hi lsl 31) lor (lo land 0x7fff_ffff)

let hi x = x asr 31
let lo x = (x lsl 32) asr 32

let code_delay = 10
let code_fragment = 12

(* Indexed by code; the two parameterized kinds are rendered by
   [wire_kind]. *)
let kind_names =
  [| "enqueue"; "DROP-congestion"; "DROP-red"; "DROP-link-down"; "DROP-corrupted";
     "transmit"; "deliver"; "";
     "MALICIOUS-drop"; "MALICIOUS-modify"; "MALICIOUS-delay"; "MALICIOUS-fabricate";
     "fragment"; "no-route"; "ttl-expired"; "local-deliver" |]

let iface_code = function
  | Iface.Enqueued _ -> 0
  | Iface.Drop_congestion _ -> 1
  | Iface.Drop_red_early _ -> 2
  | Iface.Drop_link_down _ -> 3
  | Iface.Drop_corrupted _ -> 4
  | Iface.Transmit_start _ -> 5
  | Iface.Delivered _ -> 6

let router_code = function
  | Router.Malicious_drop _ -> 8
  | Router.Malicious_modify _ -> 9
  | Router.Malicious_delay _ -> code_delay
  | Router.Fabricated _ -> 11
  | Router.Fragmented _ -> code_fragment
  | Router.No_route _ -> 13
  | Router.Ttl_expired _ -> 14
  | Router.Delivered_local _ -> 15

let fill w ~time ~code ~router ~next ~delay ~fragments (p : Packet.t) =
  w.stamp.at <- time;
  w.stamp.delay <- delay;
  w.uid <- p.Packet.uid;
  w.flow <- p.Packet.flow;
  w.hop <- pack router next;
  w.ends <- pack p.Packet.src p.Packet.dst;
  w.shape <- pack p.Packet.size ((fragments lsl 4) lor code);
  w.proto <- p.Packet.proto

(* What [Journal.recycle] hands back before the ring has wrapped: never
   recorded, so never rewritten. *)
let spare = Fault { time = 0.0; kind = ""; routers = []; detail = "" }

(* The one record path for wire events: rewrite the slot the ring is
   about to evict when it holds a snapshot (no other reference to it is
   live — readers render records, they do not keep them), else allocate
   one. *)
let journal_wire j ~time ~code ~router ~next ~delay ~fragments p =
  match Telemetry.Journal.recycle j spare with
  | Wire w as ev ->
      fill w ~time ~code ~router ~next ~delay ~fragments p;
      Telemetry.Journal.record j ev
  | Verdict _ | Fault _ ->
      let w =
        { stamp = { at = 0.0; delay = 0.0 }; uid = 0; flow = 0; hop = 0; ends = 0;
          shape = 0; proto = Packet.Udp }
      in
      fill w ~time ~code ~router ~next ~delay ~fragments p;
      Telemetry.Journal.record j (Wire w)

let journal_iface j ~time ~router ~next (ev : Iface.event) =
  journal_wire j ~time ~code:(iface_code ev) ~router ~next ~delay:0.0 ~fragments:0
    (iface_packet ev)

let journal_router j ~time ~router (ev : Router.event) =
  let code = router_code ev in
  match ev with
  | Router.Malicious_delay { next; pkt; delay } ->
      journal_wire j ~time ~code ~router ~next ~delay ~fragments:0 pkt
  | Router.Fragmented { next; original; fragments } ->
      journal_wire j ~time ~code ~router ~next ~delay:0.0 ~fragments original
  | Router.Malicious_drop { next; pkt }
  | Router.Malicious_modify { next; pkt; _ }
  | Router.Fabricated { next; pkt } ->
      journal_wire j ~time ~code ~router ~next ~delay:0.0 ~fragments:0 pkt
  | Router.No_route pkt | Router.Ttl_expired pkt | Router.Delivered_local pkt ->
      journal_wire j ~time ~code ~router ~next:(-1) ~delay:0.0 ~fragments:0 pkt

let on_ifaces read r =
  List.fold_left (fun acc i -> acc + read i) 0 (Router.ifaces r)

(* Every packet handed to the network (originate, fabricate, fragment
   pieces) ends up in exactly one of: delivered, a drop cause,
   replaced-by-fragments, or still in flight when the run stops. *)
let drop_causes =
  [ ("ttl_expired", Router.ttl_expired_drops);
    ("no_route", Router.no_route_drops);
    ("malicious", Router.malicious_drops);
    ("corrupted", on_ifaces Iface.corrupted_drops);
    ("link_down", on_ifaces Iface.link_down_drops);
    ("red_early", on_ifaces Iface.red_early_drops);
    ("congestion", on_ifaces Iface.congestion_drops) ]

(* The viewed series as (name, help, labels, reading), in registration
   order — which is export order. *)
let wire_series =
  let c name help read = (name, help, [], read) in
  [ c "malicious_delay_total" "malicious delay events" Router.delayed_packets;
    c "malicious_modify_total" "payload modification events" Router.modified_packets;
    c "pkt_forwarded_hops_total" "per-hop link deliveries"
      (on_ifaces Iface.delivered_packets);
    c "pkt_enqueued_total" "packets accepted into an output queue"
      (on_ifaces Iface.enqueued_packets) ]
  @ List.map
      (fun (cause, read) ->
        ("pkt_dropped_total", "packets dropped, by cause", [ ("cause", cause) ], read))
      drop_causes
  @ [ c "pkt_fragmented_total" "packets replaced by their fragments"
        Router.fragmented_packets;
      c "pkt_delivered_total" "packets delivered to a local application"
        Router.delivered_packets;
      c "pkt_fragments_total" "fragment packets created" Router.fragments_created;
      c "pkt_fabricated_total" "packets injected by a malicious router"
        Router.fabricated_packets;
      c "pkt_injected_total" "packets originated by applications"
        Router.originated_packets ]

let malice r =
  Router.malicious_drops r + Router.modified_packets r + Router.delayed_packets r
  + Router.fabricated_packets r

let create ?(journal_capacity = 65536) ?tracer () =
  let reg = Telemetry.Metrics.create () in
  let c name help = Telemetry.Metrics.counter reg name ~help in
  (* Each [let] fixes a registration, so the order below is the export
     order. *)
  let delivery_latency =
    Telemetry.Metrics.histogram reg "delivery_latency_seconds" ~buckets:24
      ~min_exp:(-14) ~help:"origination-to-delivery latency"
  in
  let pkt_size =
    Telemetry.Metrics.histogram reg "pkt_size_bytes" ~buckets:16 ~min_exp:4
      ~help:"size of injected packets"
  in
  let faults_injected = c "fault_injected_total" "benign faults injected into the run" in
  let alarms = c "detector_alarms_total" "alarming detector verdicts" in
  let verdicts = c "detector_verdicts_total" "detector round verdicts recorded" in
  let views =
    List.map
      (fun (name, help, labels, read) ->
        (Telemetry.Metrics.counter reg name ~help ~labels, read))
      wire_series
  in
  { registry = reg;
    journal = Telemetry.Journal.create ~capacity:journal_capacity ();
    views;
    routers = [||];
    verdicts;
    alarms;
    faults_injected;
    pkt_size;
    delivery_latency;
    first_alarm_time = None;
    verdicts_rev = [];
    tracer;
    named_tracks = Hashtbl.create 16;
    stats = None }

let attach t routers =
  t.routers <- routers;
  t.stats <-
    Some
      (Stats.create ~n:(Array.length routers)
         ~latency:(Telemetry.Metrics.hist t.delivery_latency) ())

let total t read = Array.fold_left (fun acc r -> acc + read r) 0 t.routers
let set_count c n = Telemetry.Metrics.add c (n - Telemetry.Metrics.counter_value c)

(* Bring the views up to the counts of record.  Per-router malice
   series are registered at the first read that finds the router's
   malice non-zero, in ascending router id. *)
let sync t =
  List.iter (fun (c, read) -> set_count c (total t read)) t.views;
  Array.iter
    (fun r ->
      let m = malice r in
      if m > 0 then
        set_count
          (Telemetry.Metrics.counter t.registry "malice_events_total"
             ~help:"malicious router actions, by router"
             ~labels:[ ("router", string_of_int (Router.id r)) ])
          m)
    t.routers

let registry t =
  sync t;
  t.registry

let journal t = t.journal
let tracer t = t.tracer
let stats t = t.stats

(* Name the (netsim, router) track on first use. *)
let net_track t sp router =
  if not (Hashtbl.mem t.named_tracks router) then begin
    Hashtbl.add t.named_tracks router ();
    Telemetry.Span.set_thread sp ~pid:Telemetry.Span.network_pid ~tid:router
      (Printf.sprintf "r%d" router)
  end;
  router

let on_originate t (pkt : Packet.t) =
  (match t.stats with
  | Some st -> Stats.on_originate st ~time:pkt.Packet.created pkt
  | None -> ());
  Telemetry.Metrics.observe t.pkt_size (float_of_int pkt.Packet.size);
  match t.tracer with
  | None -> ()
  | Some sp -> (
      match Telemetry.Span.new_trace sp with
      | None -> ()
      | Some trace ->
          pkt.Packet.trace <- trace;
          let tid = net_track t sp pkt.Packet.src in
          ignore
            (Telemetry.Span.instant sp ~trace ~name:"originate" ~cat:"packet"
               ~pid:Telemetry.Span.network_pid ~tid ~time:pkt.Packet.created
               ~routers:[ pkt.Packet.src ]
               ~args:
                 [ ("pkt", Telemetry.Export.Int pkt.Packet.uid);
                   ("dst", Telemetry.Export.Int pkt.Packet.dst);
                   ("flow", Telemetry.Export.Int pkt.Packet.flow);
                   ("size", Telemetry.Export.Int pkt.Packet.size) ]
               ()))

(* Per-hop spans for a traced packet: enqueue->transmit ("queue") then
   transmit->deliver ("transmit"); drops become instants and clear any
   pending window so the tables never leak.  Drop instants are recorded
   for {e every} packet, traced or not: benign congestion / RED / link
   losses are exactly the anomalies the robustness oracle and
   [mrdetect trace explain] must tell apart from malice, so they never
   ride on the sampling coin — only the routine hop spans do. *)
let trace_iface t sp ~time ~router ~next (ev : Iface.event) =
  let pkt = iface_packet ev in
  let trace = pkt.Packet.trace in
  let pid = Telemetry.Span.network_pid in
  let pkt_args () =
    [ ("pkt", Telemetry.Export.Int pkt.Packet.uid);
      ("next", Telemetry.Export.Int next) ]
  in
  let drop cause =
    let tid = net_track t sp router in
    pkt.Packet.q_start <- -1.0;
    pkt.Packet.tx_start <- -1.0;
    ignore
      (Telemetry.Span.instant sp
         ?trace:(if trace <> 0 then Some trace else None)
         ~name:("drop " ^ cause) ~cat:"drop" ~pid ~tid ~time
         ~routers:[ router; next ]
         ~args:(("cause", Telemetry.Export.String cause) :: pkt_args ())
         ())
  in
  match ev with
  | Iface.Drop_congestion _ -> drop "congestion"
  | Iface.Drop_red_early _ -> drop "red_early"
  | Iface.Drop_link_down _ -> drop "link_down"
  | Iface.Drop_corrupted _ -> drop "corrupted"
  | (Iface.Enqueued _ | Iface.Transmit_start _ | Iface.Delivered _)
    when trace = 0 ->
      ()
  | Iface.Enqueued _ -> pkt.Packet.q_start <- time
  | Iface.Transmit_start _ ->
      let tid = net_track t sp router in
      let start = pkt.Packet.q_start in
      if start >= 0.0 then begin
        pkt.Packet.q_start <- -1.0;
        ignore
          (Telemetry.Span.hop_span sp ~trace ~name:"queue" ~pid ~tid ~start
             ~finish:time ~router ~next ~pkt:pkt.Packet.uid)
      end;
      pkt.Packet.tx_start <- time
  | Iface.Delivered _ ->
      let tid = net_track t sp router in
      let start = pkt.Packet.tx_start in
      if start >= 0.0 then begin
        pkt.Packet.tx_start <- -1.0;
        ignore
          (Telemetry.Span.hop_span sp ~trace ~name:"transmit" ~pid ~tid ~start
             ~finish:time ~router ~next ~pkt:pkt.Packet.uid)
      end

let on_iface t ~time ~router ~next (ev : Iface.event) =
  (match t.stats with Some st -> Stats.on_iface st ~time ~router ev | None -> ());
  journal_iface t.journal ~time ~router ~next ev;
  match t.tracer with
  | Some sp -> trace_iface t sp ~time ~router ~next ev
  | None -> ()

let trace_router t sp ~time ~router (ev : Router.event) =
  let pkt = router_packet ev in
  let trace = pkt.Packet.trace in
  let name, cat =
    match ev with
    | Router.Malicious_drop _ -> ("malicious drop", "malice")
    | Router.Malicious_modify _ -> ("malicious modify", "malice")
    | Router.Malicious_delay _ -> ("malicious delay", "malice")
    | Router.Fabricated _ -> ("fabricate", "malice")
    | Router.Fragmented _ -> ("fragment", "hop")
    | Router.No_route _ -> ("drop no_route", "drop")
    | Router.Ttl_expired _ -> ("drop ttl_expired", "drop")
    | Router.Delivered_local _ -> ("deliver", "packet")
  in
  (* Anomalies (malice and drops) are always recorded; routine
     hop/delivery events only for sampled packets. *)
  if trace <> 0 || cat = "malice" || cat = "drop" then begin
    let pid = Telemetry.Span.network_pid in
    let tid = net_track t sp router in
    let args =
      ("pkt", Telemetry.Export.Int pkt.Packet.uid)
      ::
      (match ev with
      | Router.Delivered_local _ ->
          [ ("latency", Telemetry.Export.Float (time -. pkt.Packet.created)) ]
      | Router.Malicious_delay { delay; _ } ->
          [ ("delay", Telemetry.Export.Float delay) ]
      | Router.Fragmented { fragments; _ } ->
          [ ("fragments", Telemetry.Export.Int fragments) ]
      | _ -> [])
    in
    ignore
      (Telemetry.Span.instant sp
         ?trace:(if trace <> 0 then Some trace else None)
         ~name ~cat ~pid ~tid ~time ~routers:[ router ] ~args ())
  end

let on_router t ~time ~router (ev : Router.event) =
  (match t.stats with Some st -> Stats.on_router st ~time ~router ev | None -> ());
  (match ev with
  | Router.Delivered_local pkt ->
      Telemetry.Metrics.observe t.delivery_latency (time -. pkt.Packet.created)
  | _ -> ());
  journal_router t.journal ~time ~router ev;
  match t.tracer with
  | Some sp -> trace_router t sp ~time ~router ev
  | None -> ()

let record_verdict t ~time ~detector ?subject ?(suspects = []) ?confidence ~alarm
    ?(detail = "") ?(evidence = []) () =
  Telemetry.Metrics.inc t.verdicts;
  if alarm then begin
    Telemetry.Metrics.inc t.alarms;
    if t.first_alarm_time = None then t.first_alarm_time <- Some time
  end;
  let v = { time; detector; subject; suspects; confidence; alarm; detail } in
  t.verdicts_rev <- v :: t.verdicts_rev;
  (match t.stats with
  | Some st -> Stats.on_verdict st ~time ~detector ~alarm
  | None -> ());
  Telemetry.Journal.record t.journal (Verdict v);
  match t.tracer with
  | None -> ()
  | Some sp ->
      ignore
        (Telemetry.Span.verdict sp ~time ~detector ?subject ~suspects ?confidence
           ~alarm ~detail ~evidence ())

let first_alarm_time t = t.first_alarm_time
let verdicts t = List.rev t.verdicts_rev
let faults_recorded t = Telemetry.Metrics.counter_value t.faults_injected

let record_fault t ~time ~kind ?(routers = []) ?(detail = "") () =
  Telemetry.Metrics.inc t.faults_injected;
  (match t.stats with Some st -> Stats.on_fault st ~time | None -> ());
  Telemetry.Journal.record t.journal (Fault { time; kind; routers; detail });
  match t.tracer with
  | None -> ()
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid "faults" in
      let args =
        ("kind", Telemetry.Export.String kind)
        :: (if detail = "" then []
            else [ ("detail", Telemetry.Export.String detail) ])
      in
      ignore
        (Telemetry.Span.instant sp ~name:("fault " ^ kind) ~cat:"fault" ~pid ~tid
           ~time ~routers ~args ())

(* Detector-side span helpers: record on the "detectors" process, one
   track per [track] name.  No-ops (returning [None]) without a tracer,
   so protocol code can call them unconditionally. *)

let trace_span t ~track ~name ?cat ~start ~finish ?routers ?args () =
  (* Round spans double as the always-on round-duration samples: the
     stats feed runs with or without a tracer attached. *)
  (match (t.stats, cat) with
  | Some st, Some "round" -> Stats.on_round st ~track ~start ~finish
  | _ -> ());
  match t.tracer with
  | None -> None
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid track in
      Some
        (Telemetry.Span.span sp ~name ?cat ~pid ~tid ~start ~finish ?routers ?args
           ())

let trace_instant t ~track ~name ?cat ~time ?routers ?args () =
  match t.tracer with
  | None -> None
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid track in
      Some (Telemetry.Span.instant sp ~name ?cat ~pid ~tid ~time ?routers ?args ())

(* --- conservation --- *)

type conservation = {
  total_injected : int;   (* originate + fabricate + fragments *)
  total_delivered : int;
  total_dropped : int;    (* all causes *)
  total_fragmented : int; (* originals replaced by fragments *)
  in_flight : int;
}

let conservation t =
  let total_injected =
    total t (fun r ->
        Router.originated_packets r + Router.fabricated_packets r
        + Router.fragments_created r)
  in
  let total_delivered = total t Router.delivered_packets in
  let total_dropped =
    List.fold_left (fun acc (_, read) -> acc + total t read) 0 drop_causes
  in
  let total_fragmented = total t Router.fragmented_packets in
  { total_injected; total_delivered; total_dropped; total_fragmented;
    in_flight = total_injected - total_delivered - total_dropped - total_fragmented }

(* --- formatting: one trace line per record, derived on demand --- *)

let wire_code w = lo w.shape land 0xf
let wire_is_link w = wire_code w < 8

let wire_kind w =
  let code = wire_code w in
  if code = code_delay then Printf.sprintf "MALICIOUS-delay(%.3fs)" w.stamp.delay
  else if code = code_fragment then Printf.sprintf "fragment(x%d)" (lo w.shape asr 4)
  else kind_names.(code)

let wire_packet w =
  Packet.render ~uid:w.uid ~src:(hi w.ends) ~dst:(lo w.ends) ~flow:w.flow
    ~size:(hi w.shape) w.proto

let describe = function
  | Wire w when wire_is_link w ->
      Printf.sprintf "%.4f r%d->r%d %s %s" w.stamp.at (hi w.hop) (lo w.hop)
        (wire_kind w) (wire_packet w)
  | Wire w ->
      Printf.sprintf "%.4f r%d %s %s" w.stamp.at (hi w.hop) (wire_kind w)
        (wire_packet w)
  | Verdict { time; detector; suspects; alarm; _ } ->
      Printf.sprintf "%.4f %s %s%s" time detector
        (if alarm then "ALARM" else "verdict")
        (match suspects with
        | [] -> ""
        | s -> " suspects=" ^ String.concat "," (List.map string_of_int s))
  | Fault { time; kind; routers; detail } ->
      Printf.sprintf "%.4f FAULT-%s%s%s" time kind
        (match routers with
        | [] -> ""
        | rs -> " r" ^ String.concat ",r" (List.map string_of_int rs))
        (if detail = "" then "" else " " ^ detail)

(* --- JSONL export --- *)

let event_time = function
  | Wire w -> w.stamp.at
  | Verdict { time; _ } | Fault { time; _ } -> time

let json_of_event ev =
  let open Telemetry.Export in
  let base =
    match ev with
    | Wire w when wire_is_link w ->
        [ ("event", String (wire_kind w));
          ("layer", String "link");
          ("router", Int (hi w.hop));
          ("next", Int (lo w.hop)) ]
    | Wire w ->
        [ ("event", String (wire_kind w));
          ("layer", String "router");
          ("router", Int (hi w.hop)) ]
    | Verdict { detector; subject; suspects; confidence; alarm; detail; _ } ->
        [ ("event", String "verdict");
          ("layer", String "detector");
          ("detector", String detector) ]
        @ (match subject with Some s -> [ ("router", Int s) ] | None -> [])
        @ [ ("suspects", List (List.map (fun s -> Int s) suspects)) ]
        @ (match confidence with
          | Some c -> [ ("confidence", Float c) ]
          | None -> [])
        @ [ ("alarm", Bool alarm) ]
        @ (if detail = "" then [] else [ ("detail", String detail) ])
    | Fault { kind; routers; detail; _ } ->
        [ ("event", String ("fault-" ^ kind));
          ("layer", String "fault");
          ("routers", List (List.map (fun r -> Int r) routers)) ]
        @ if detail = "" then [] else [ ("detail", String detail) ]
  in
  Assoc
    ((("time", Float (event_time ev)) :: base)
    @
    match ev with
    | Wire w ->
        [ ( "pkt",
            Assoc
              [ ("uid", Int w.uid);
                ("src", Int (hi w.ends));
                ("dst", Int (lo w.ends));
                ("flow", Int w.flow);
                ("size", Int (hi w.shape)) ] ) ]
    | Verdict _ | Fault _ -> [])

let write_journal t oc =
  Telemetry.Journal.iter t.journal (fun ev ->
      Telemetry.Export.to_channel oc (json_of_event ev);
      output_char oc '\n')
