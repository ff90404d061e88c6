(* Span ledger for the traced run.

   Every layer call the benchmark makes, every slice of [Net.run] and
   every kernel unit-cost measurement is wrapped in [span].  With the
   ledger off, [span name f] is just [f ()]; with it on, it records
   (name, start, stop, parent, trial) in memory.  Nothing is written
   until [dump].  A span's self time is its duration minus the
   durations of its direct children, so the self times of a tree sum
   exactly to the root's duration. *)

type span = {
  name : string;
  trial : int;
  parent : int;  (* index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
}

let clock = Unix.gettimeofday
let enabled = ref false
let rev_spans : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []
let trial = ref 0

let reset () =
  rev_spans := [];
  count := 0;
  stack := [];
  trial := 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !count in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; trial = !trial; parent; start = clock (); stop = nan } in
    incr count;
    rev_spans := s :: !rev_spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- clock ();
        stack := List.tl !stack)
      f
  end

let spans () = Array.of_list (List.rev !rev_spans)
let duration s = s.stop -. s.start

(* Self time of every span, indexed like [spans ()]. *)
let self_times spans =
  let self = Array.map duration spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s)
    spans;
  self

let durations spans name =
  Array.fold_left
    (fun acc s -> if s.name = name then duration s :: acc else acc)
    [] spans

let total spans name = List.fold_left ( +. ) 0.0 (durations spans name)

(* One line per span: id, parent, trial, name, start offset, duration and
   self time in seconds, as tab-separated text. *)
let dump path spans =
  let self = self_times spans in
  let t0 = if Array.length spans = 0 then 0.0 else spans.(0).start in
  let oc = open_out path in
  output_string oc "id\tparent\ttrial\tname\tstart_s\tduration_s\tself_s\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.9f\n" i s.parent s.trial
        s.name (s.start -. t0) (duration s) self.(i))
    spans;
  close_out oc
