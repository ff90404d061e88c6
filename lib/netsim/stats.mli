(** Always-on time-series collection for a simulated run.

    A [Stats.t] belongs to a {!Probe} and is fed by the probe's hooks:
    headline event rates as downsampling {!Telemetry.Timeseries} rings,
    latency and duration {!Telemetry.Hist} histograms and per-router
    queue-depth series — all bounded, all O(1) allocation-free records.
    Per-link transmit/drop totals are the interfaces' own counters
    ({!Iface.tx_packets}, {!Iface.dropped_packets}), read at export.

    A run has one collector, fed on the coordinator in the merged
    (time, rank) event order — under the sharded engine at each epoch
    flush — so its output is byte-identical for every shard count
    [K >= 1]. *)

type t

val create : n:int -> latency:Telemetry.Hist.t -> unit -> t
(** The collector for an [n]-router network.  [latency] is the
    delivery-latency histogram the probe records into; the collector
    reads it for its views and never records into it. *)

val routers : t -> int

val set_attack_start : t -> float -> unit
(** Arms the detection-latency histograms: subsequent alarming verdicts
    record [time - attack_start]. *)

val attack_start : t -> float option

(** {2 Data plane} *)

val on_originate : t -> time:float -> Packet.t -> unit
val on_iface : t -> time:float -> router:int -> Iface.event -> unit
val on_router : t -> time:float -> router:int -> Router.event -> unit

(** {2 Control plane} *)

val on_verdict : t -> time:float -> detector:string -> alarm:bool -> unit

val on_round : t -> track:string -> start:float -> finish:float -> unit
(** Record a protocol round duration.  [track] is the span track name
    ("fatih", "chi r3"); its first token keys the per-protocol
    histogram. *)

val on_ctrl_send : t -> attempts:int -> ok:bool -> unit
val on_fault : t -> time:float -> unit

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
