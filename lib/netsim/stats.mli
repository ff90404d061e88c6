(** Always-on time-series collection for a simulated run.

    A [Stats.t] rides along with the {!Probe}: headline event rates as
    downsampling {!Telemetry.Timeseries} rings, latency and duration
    {!Telemetry.Hist} histograms and per-router queue-depth series — all
    bounded, all fed with O(1) allocation-free records from the same
    sites that feed the probe.  Per-link transmit/drop totals are the
    interfaces' own counters ({!Iface.tx_packets},
    {!Iface.dropped_packets}), read at export.

    Sharded runs keep one {!local} collector per shard, fed on the
    shard's own domain inside windows, and {!drain} them into the main
    collector at every epoch barrier.  Merged state is integer bucket
    counts plus fixed-point sums, so the fold is exact (commutative and
    associative) and the aggregate is byte-identical for every shard
    count [K >= 1].  Queue-depth tracking is a set of
    shared single-writer arrays (router [r]'s cells are only touched by
    the domain executing [r]'s events), so the running depth never
    splits across collectors. *)

type t

val create : n:int -> unit -> t
(** The main collector for an [n]-router network. *)

val local : t -> t
(** A per-shard local collector: fresh mergeable series/histograms,
    {e sharing} the per-router arrays of the parent. *)

val routers : t -> int

val set_attack_start : t -> float -> unit
(** Arms the detection-latency histograms: subsequent alarming verdicts
    record [time - attack_start]. *)

val attack_start : t -> float option

(** {2 Data plane} (safe on shard domains via {!local} collectors) *)

val on_originate : t -> time:float -> Packet.t -> unit
val on_iface : t -> time:float -> router:int -> Iface.event -> unit
val on_router : t -> time:float -> router:int -> Router.event -> unit

(** {2 Control plane} (coordinator only — feed the main collector) *)

val on_verdict : t -> time:float -> detector:string -> alarm:bool -> unit

val on_round : t -> track:string -> start:float -> finish:float -> unit
(** Record a protocol round duration.  [track] is the span track name
    ("fatih", "chi r3"); its first token keys the per-protocol
    histogram. *)

val on_ctrl_send : t -> attempts:int -> ok:bool -> unit
val on_fault : t -> time:float -> unit

(** {2 Aggregation} *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s mergeable collectors into [into] (exact integer
    arithmetic; shared arrays are left alone). *)

val drain : into:t -> t -> unit
(** {!merge_into} followed by clearing [src]'s mergeable collectors —
    the per-epoch-barrier step for per-shard locals.  Shared state
    (queue depths) is untouched: it lives in one place
    and needs no folding. *)

(** {2 Views} *)

val to_json : t -> ifaces:Iface.t list -> Telemetry.Export.json
(** The "stats" section of the metrics document: headline series,
    histograms (with deterministic p50/p95/p99), ctrl channel counters,
    per-link totals of [ifaces] (those that transmitted or dropped
    anything, in the given order) and per-router queue-depth series.
    Deterministically ordered given {!Net.ifaces}. *)

val json_of_series : string -> Telemetry.Timeseries.t -> Telemetry.Export.json
val json_of_hist : string -> Telemetry.Hist.t -> Telemetry.Export.json

val prometheus : t -> string
(** Prometheus text rendering of every collector ([stats_] prefix):
    series as per-bucket gauge vectors, histograms with [le=] edges
    exactly {!Telemetry.Hist.uppers}, per-protocol histograms as
    labelled families. *)

val injected : t -> Telemetry.Timeseries.t
val delivered : t -> Telemetry.Timeseries.t
val enqueued : t -> Telemetry.Timeseries.t
val dropped : t -> Telemetry.Timeseries.t
val malice : t -> Telemetry.Timeseries.t
val alarms : t -> Telemetry.Timeseries.t
val delivery_latency : t -> Telemetry.Hist.t
val ctrl_attempts_hist : t -> Telemetry.Hist.t
val ctrl_sends : t -> int
val ctrl_timeouts : t -> int
val queue_depth : t -> int -> Telemetry.Timeseries.t
val round_durations : t -> (string * Telemetry.Hist.t) list
val detection_latencies : t -> (string * Telemetry.Hist.t) list
