(** The simulator's observability pipeline.

    A probe bundles a {!Telemetry.Metrics} registry (packet counters by
    outcome, per-router malice counters, size and latency histograms)
    with a bounded {!Telemetry.Journal} of typed records covering all
    three layers: wire events (link and router), detector verdicts and
    injected faults, and with the run's {!Stats} collector.  Attach one
    to a network with {!Net.set_probe} before the run — the forwarding
    plane hands it every wire event, and detectors add verdicts via
    {!record_verdict}.  With no probe attached the per-event cost in the
    forwarding plane is a single pointer test.

    The probe counts nothing on the wire path.  Its packet series
    ([pkt_*_total], [malicious_modify_total], [malicious_delay_total]
    and the per-router [malice_events_total]) are views over the
    always-on per-cause {!Iface} and {!Router} counters of the attached
    network — the counts of record — brought up to date whenever
    {!registry} or {!conservation} is read.  A router's
    [malice_events_total] series (its drops, modifications, delays and
    fabrications) is registered at the first such read that finds it
    non-zero, routers in ascending id order.

    The journal retains no packets.  A wire event is journaled as a
    {!wire} snapshot: the few ints the renderers need (router, next hop,
    the packet's uid, addresses, flow, size and protocol header) copied
    out when the event happens.  Once the ring has wrapped, each new
    wire event rewrites the snapshot it evicts
    ({!Telemetry.Journal.recycle}), so sustained journaling allocates
    nothing and promotes nothing — and, because no observation outlives
    its event, packet pooling stays live under a probe on the classic
    engine.  The flip side: a record read out of {!journal} is valid
    until the next wire event; render it (or copy what you need) before
    the run continues.

    {!describe} renders any record as a one-line trace entry (what
    [mrdetect simulate --trace N] prints); exporters turn the journal
    into JSONL with {!write_journal}.

    A probe can additionally bridge into a {!Telemetry.Span} collector
    (pass [tracer] at creation): {!on_originate} then assigns each
    sampled packet a trace id carried in [Packet.trace], per-hop link
    events open queue/transmit spans and drop instants on the packet's
    trace, router events become instants, and {!record_verdict} writes a
    provenance record pinning the flight-recorder window for the
    implicated routers.  Detectors add their own round spans and
    evidence instants via {!trace_span} / {!trace_instant}. *)

type wire
(** A wire-event snapshot (see above).  Mutable and recycled by the
    journal that holds it; read it only through {!describe} or
    {!write_journal}. *)

type verdict = {
  time : float;
  detector : string;          (** "chi" | "fatih" | "pi2" | "watchers" | ... *)
  subject : int option;       (** the router under validation, if any *)
  suspects : int list;        (** accused routers/flows (detector-specific) *)
  confidence : float option;
  alarm : bool;
  detail : string;
}

type fault_record = {
  time : float;
  kind : string;     (** "link_down" | "link_up" | "crash" | "restart" | ... *)
  routers : int list;
  detail : string;
}
(** A {e benign} injected fault: churn the oracle must excuse, never a
    malicious action. *)

type event =
  | Wire of wire
  | Verdict of verdict
  | Fault of fault_record

type t

val create : ?journal_capacity:int -> ?tracer:Telemetry.Span.t -> unit -> t
(** A fresh probe with its own registry; [journal_capacity] bounds the
    journal (default 65536 records).  Pass [tracer] to record causal
    spans alongside the journal. *)

val attach : t -> Router.t array -> unit
(** Bind the probe to a network's routers, indexed by id (done by
    {!Net.set_probe}): its packet series read their counters, and a
    fresh {!Stats} collector sized for them starts. *)

val registry : t -> Telemetry.Metrics.t
(** The registry, its packet series synced from the attached routers'
    counters first. *)

val journal : t -> event Telemetry.Journal.t

val tracer : t -> Telemetry.Span.t option
(** The span collector attached at creation, if any. *)

val stats : t -> Stats.t option
(** The collector started by {!attach}: wire events, verdicts, faults
    and round spans feed it — with or without a tracer attached.  Its
    delivery-latency histogram is the registry's
    [delivery_latency_seconds] buckets. *)

val on_originate : t -> Packet.t -> unit
(** Observe an application origination: feed {!stats} and the size
    histogram.  With a tracer attached this also draws the sampling coin
    and, when sampled, stamps [Packet.trace] and records an "originate"
    instant. *)

val on_iface : t -> time:float -> router:int -> next:int -> Iface.event -> unit
val on_router : t -> time:float -> router:int -> Router.event -> unit
(** Forwarding-plane hooks (called by {!Net}): feed {!stats}, journal
    the event's {!wire} snapshot and (for traced packets) record hop
    spans / instants. *)

val journal_iface :
  event Telemetry.Journal.t -> time:float -> router:int -> next:int ->
  Iface.event -> unit
val journal_router :
  event Telemetry.Journal.t -> time:float -> router:int -> Router.event -> unit
(** Journal a wire event's snapshot into any journal, recycling the
    evicted snapshot once the ring has wrapped — the record path
    {!on_iface}/{!on_router} use, shared with
    [mrdetect simulate --trace N].  Raises [Invalid_argument] if a
    router id, address or size lies outside [[-2^30, 2^30)]. *)

val record_verdict :
  t ->
  time:float ->
  detector:string ->
  ?subject:int ->
  ?suspects:int list ->
  ?confidence:float ->
  alarm:bool ->
  ?detail:string ->
  ?evidence:Telemetry.Span.id list ->
  unit ->
  unit
(** Journal a detector verdict; alarming verdicts also advance the
    alarm counter and pin {!first_alarm_time}.  With a tracer attached
    the verdict becomes a provenance record whose [evidence] ids (from
    {!trace_span} / {!trace_instant}) justify the accusation, and the
    flight-recorder window for the implicated routers is pinned. *)

val trace_span :
  t ->
  track:string ->
  name:string ->
  ?cat:string ->
  start:float ->
  finish:float ->
  ?routers:int list ->
  ?args:(string * Telemetry.Export.json) list ->
  unit ->
  Telemetry.Span.id option
(** Record a detector-side span on the named track (e.g. a protocol
    round).  [None] — and no work — without a tracer. *)

val trace_instant :
  t ->
  track:string ->
  name:string ->
  ?cat:string ->
  time:float ->
  ?routers:int list ->
  ?args:(string * Telemetry.Export.json) list ->
  unit ->
  Telemetry.Span.id option
(** Record a detector-side point event (e.g. a suspicious loss used as
    verdict evidence).  [None] without a tracer. *)

val record_fault :
  t ->
  time:float ->
  kind:string ->
  ?routers:int list ->
  ?detail:string ->
  unit ->
  unit
(** Journal a benign injected fault (from {!Faults.Injector} or the
    chaos generator), bump the fault counter, and — with a tracer
    attached — record an instant on the detector-side "faults" track so
    the churn shows up in [mrdetect trace explain] next to the verdicts
    it might have confused. *)

val first_alarm_time : t -> float option

val verdicts : t -> verdict list
(** Every verdict recorded through {!record_verdict}, oldest first.
    Unlike the bounded journal — where heavy link traffic can evict an
    early verdict — this list is complete for the whole run; it is what
    {!Faults.Oracle} scores. *)

val faults_recorded : t -> int
(** Total benign faults recorded through {!record_fault}. *)

type conservation = {
  total_injected : int;
      (** originated + fabricated + fragment pieces created *)
  total_delivered : int;
  total_dropped : int;     (** all causes, congestion through malice *)
  total_fragmented : int;  (** originals replaced by their fragments *)
  in_flight : int;
      (** injected − delivered − dropped − fragmented: packets still
          queued or propagating when the run stopped (multicast
          duplication is the one path that injects copies outside these
          counters) *)
}

val conservation : t -> conservation
(** Computed from the attached routers' and interfaces' counters. *)

val describe : event -> string
(** The one-line trace rendering ("12.0345 r3->r4 deliver #812
    ...") derived from the typed record. *)

val write_journal : t -> out_channel -> unit
(** Dump the retained journal as JSONL, oldest record first. *)
