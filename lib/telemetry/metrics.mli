(** Metrics registry: labeled counters, gauges and log-bucketed
    histograms.

    Registration (the cold path) resolves a (name, label set) pair to a
    handle; the hot path works on the handle alone — an {!inc} is a
    single in-place integer update and an {!observe} one
    {!Hist.record} plus a float add, so instrumentation can stay in
    per-packet code.  Registering the same (name, labels) twice returns
    the same handle, so label families ("per router", "per drop cause")
    need no bookkeeping at the call site. *)

type t
(** A registry: an ordered collection of metric series. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or look up) a monotone integer counter. Raises
    [Invalid_argument] if the series exists with a different type. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
(** Register (or look up) a float gauge. *)

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:int ->
  ?min_exp:int ->
  string ->
  histogram
(** Register a base-2 log-bucketed histogram: a {!Hist.t} of [buckets]
    bins (default 32, minimum 3) starting at [min_exp] (default 0; see
    {!Hist} for the geometry), plus a float sum of the observed values.
    Raises [Invalid_argument] for fewer than 3 buckets. *)

val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** {!Hist.record} the value and add it to the float sum, which (unlike
    the Hist's fixed-point sum) is what the exporters report. *)

val hist : histogram -> Hist.t
(** The live buckets, for collectors that share them. *)

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of { hist : Hist.t; sum : float }
      (** the live buckets (not a copy) and the float sum *)

val snapshot : t -> (string * string * (string * string) list * sample) list
(** [(name, help, labels, sample)] for every registered series in
    registration order — the only view exporters need. *)
