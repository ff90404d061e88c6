type proto =
  | Udp
  | Tcp of tcp_header
  | Ping of int
  | Pong of int

and tcp_header = { seq : int; ack : int; syn : bool; fin : bool }

type t = {
  mutable uid : int;
  mutable src : int;
  mutable dst : int;
  mutable flow : int;
  mutable size : int;
  mutable proto : proto;
  mutable ttl : int;
  mutable payload : int64;
  mutable created : float;
  mutable trace : int;
  mutable q_start : float;
  mutable tx_start : float;
}

(* Payloads carry pseudo-random bytes: on the wire nothing
   distinguishes one application's packet from another's, which
   stealth probing (§3.8) depends on. *)
let make_at ~now ~uid ~src ~dst ~flow ~size ?(ttl = 64) proto =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  { uid; src; dst; flow; size; proto; ttl;
    payload = Crypto_sim.Fnv.hash_int64 (Int64.of_int uid); created = now;
    trace = 0; q_start = -1.0; tx_start = -1.0 }

let make ~sim ?uid ~src ~dst ~flow ~size ?(ttl = 64) proto =
  let uid = match uid with Some uid -> uid | None -> Sim.fresh_id sim in
  make_at ~now:(Sim.now sim) ~uid ~src ~dst ~flow ~size ~ttl proto

let clone t = { t with uid = t.uid }

(* Pool recycling: overwrite every field of a dead packet so the reused
   record is indistinguishable from a fresh [make]. *)
let reinit p ~now ~uid ~src ~dst ~flow ~size ?(ttl = 64) proto =
  if size <= 0 then invalid_arg "Packet.reinit: size must be positive";
  p.uid <- uid;
  p.src <- src;
  p.dst <- dst;
  p.flow <- flow;
  p.size <- size;
  p.proto <- proto;
  p.ttl <- ttl;
  p.payload <- Crypto_sim.Fnv.hash_int64 (Int64.of_int uid);
  p.created <- now;
  p.trace <- 0;
  p.q_start <- -1.0;
  p.tx_start <- -1.0

(* The fingerprint is SipHash over the little-endian words uid, src,
   dst, flow, size, payload, then the protocol header: [0] for UDP,
   [1; seq; ack; syn<<1|fin] for TCP, [2; seq] / [3; seq] for ping /
   pong.  The words are laid out in a byte buffer and hashed with the
   byte-string entry point, whose rule over 8n bytes is exactly the
   word rule, so a call allocates only the buffer and the result.  The
   buffer is per call, not shared: shards fingerprint on several
   domains at once. *)
let fingerprint key p =
  let header_words =
    match p.proto with Udp -> 1 | Tcp _ -> 4 | Ping _ | Pong _ -> 2
  in
  let b = Bytes.create (8 * (6 + header_words)) in
  Bytes.set_int64_le b 0 (Int64.of_int p.uid);
  Bytes.set_int64_le b 8 (Int64.of_int p.src);
  Bytes.set_int64_le b 16 (Int64.of_int p.dst);
  Bytes.set_int64_le b 24 (Int64.of_int p.flow);
  Bytes.set_int64_le b 32 (Int64.of_int p.size);
  Bytes.set_int64_le b 40 p.payload;
  (match p.proto with
  | Udp -> Bytes.set_int64_le b 48 0L
  | Tcp { seq; ack; syn; fin } ->
      Bytes.set_int64_le b 48 1L;
      Bytes.set_int64_le b 56 (Int64.of_int seq);
      Bytes.set_int64_le b 64 (Int64.of_int ack);
      Bytes.set_int64_le b 72
        (Int64.of_int ((if syn then 2 else 0) lor if fin then 1 else 0))
  | Ping seq ->
      Bytes.set_int64_le b 48 2L;
      Bytes.set_int64_le b 56 (Int64.of_int seq)
  | Pong seq ->
      Bytes.set_int64_le b 48 3L;
      Bytes.set_int64_le b 56 (Int64.of_int seq));
  Crypto_sim.Siphash.hash key (Bytes.unsafe_to_string b)

let is_syn p = match p.proto with Tcp h -> h.syn | Udp | Ping _ | Pong _ -> false

let render ~uid ~src ~dst ~flow ~size proto =
  let proto =
    match proto with
    | Udp -> "udp"
    | Tcp h ->
        Printf.sprintf "tcp seq=%d ack=%d%s%s" h.seq h.ack (if h.syn then " SYN" else "")
          (if h.fin then " FIN" else "")
    | Ping s -> Printf.sprintf "ping %d" s
    | Pong s -> Printf.sprintf "pong %d" s
  in
  Printf.sprintf "#%d %d->%d flow=%d %dB %s" uid src dst flow size proto

let describe p =
  render ~uid:p.uid ~src:p.src ~dst:p.dst ~flow:p.flow ~size:p.size p.proto
