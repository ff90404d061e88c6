(* A fixed reference computation that tracks how fast this host runs
   the simulator's kind of work right now.

   On a shared host the same simulation runs up to 1.8x slower while
   neighbours are busy, in phases of seconds to minutes, so raw times
   from runs minutes apart do not compare.  This computation does what
   the simulator's hot path does — hash-table lookups through small
   heap blocks, short-lived allocation, and a queue whose entries live
   long enough to be promoted — and it does not call the code under
   test, so a faster simulator does not make it faster.  Timed between
   simulation slices, it measured the slowdowns the simulation suffered
   while a pure integer loop or a flat-array scan did not. *)

(* Built on first use, so that a process's first rep runs without it. *)
let data =
  lazy
    (let table = Hashtbl.create 40_000 in
     for i = 0 to 29_999 do
       Hashtbl.replace table (i * 7919) (Array.make 4 i)
     done;
     let queue = Queue.create () in
     for i = 1 to 20_000 do
       Queue.push (i, [ i ]) queue
     done;
     (table, queue))

(* The reference time that normalized seconds are expressed at: about
   the reference's time on the tuning host when run alone.  Between
   simulation slices it runs slower (the simulation has evicted its data
   from the caches), so normalized times read below raw ones. *)
let nominal_s = 0.0006

(* Seconds for one fixed unit of reference work. *)
let measure () =
  let table, queue = Lazy.force data in
  let t0 = Unix.gettimeofday () in
  let x = ref 0x12345 and a = ref 0 in
  for i = 1 to 2_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    (match Hashtbl.find_opt table ((v land 0x7fff) * 7919) with
    | Some arr -> a := !a + arr.(0)
    | None -> ());
    ignore (Queue.pop queue);
    Queue.push (i, [ i; !a ]) queue
  done;
  ignore (Sys.opaque_identity !a);
  Unix.gettimeofday () -. t0
