type flow_series = {
  bucket : float;
  bins : (int, int) Hashtbl.t;  (* bin index -> bytes *)
  mutable last_bin : int;
  mutable total : int;
}

let flow_throughput net ~node ~flow ~bucket =
  if bucket <= 0.0 then invalid_arg "Meter.flow_throughput: bucket must be positive";
  let t = { bucket; bins = Hashtbl.create 64; last_bin = 0; total = 0 } in
  let sim = Net.sim net in
  Net.attach_app net ~node (fun pkt ->
      if pkt.Packet.flow = flow then begin
        let bin = int_of_float (Sim.now sim /. bucket) in
        Hashtbl.replace t.bins bin
          (pkt.Packet.size + Option.value ~default:0 (Hashtbl.find_opt t.bins bin));
        if bin > t.last_bin then t.last_bin <- bin;
        t.total <- t.total + pkt.Packet.size
      end);
  t

let series t =
  List.init (t.last_bin + 1) (fun bin ->
      let bytes = Option.value ~default:0 (Hashtbl.find_opt t.bins bin) in
      (float_of_int (bin + 1) *. t.bucket, float_of_int bytes /. t.bucket))

let total_bytes t = t.total
