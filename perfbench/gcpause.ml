(* GC pause time from OCaml's bundled Runtime_events.

   The runtime emits begin/end events for every collector phase into a
   per-domain ring.  A pause is an outermost interval of a minor
   collection, a major slice or an explicit collection; nested phases
   inside it are not counted twice.  The ring is finite, so callers
   [poll] after each simulation slice; overwritten events are counted
   in [lost] rather than silently under-reported.  Until [start],
   [poll] does nothing. *)

open Runtime_events

let cursor = ref None
let depth = ref 0
let opened = ref 0L
let pause_ns = ref 0L
let lost = ref 0

let pausing = function
  | EV_MINOR | EV_MAJOR_SLICE | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR
  | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT
  | EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
  | _ -> false

let callbacks =
  Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if pausing phase then begin
        if !depth = 0 then opened := Timestamp.to_int64 ts;
        incr depth
      end)
    ~runtime_end:(fun _ ts phase ->
      if pausing phase && !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          pause_ns := Int64.add !pause_ns (Int64.sub (Timestamp.to_int64 ts) !opened)
      end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let start () =
  Runtime_events.start ();
  cursor := Some (create_cursor None)

let poll () =
  match !cursor with
  | Some c -> ignore (read_poll c callbacks None)
  | None -> ()

(* Cumulative pause seconds since [start]. *)
let seconds () =
  poll ();
  Int64.to_float !pause_ns /. 1e9
