(* Tests for the telemetry subsystem: metrics registry (counters,
   gauges, log-bucketed histograms), bounded journal, JSON
   emitter/parser round-trips, and an end-to-end golden check that
   `mrdetect simulate --metrics` output parses back and conserves
   packets. *)

open Telemetry

(* --- histograms: bucketing edge cases --- *)

let test_histogram_zero_and_negative () =
  let h = Hist.create ~buckets:8 () in
  Alcotest.(check int) "zero lands in bin 0" 0 (Hist.bucket_index h 0.0);
  Alcotest.(check int) "negative lands in bin 0" 0 (Hist.bucket_index h (-3.5));
  Hist.record h 0.0;
  Hist.record h (-1.0);
  Alcotest.(check int) "count tracks records" 2 (Hist.count h)

let test_histogram_boundaries () =
  (* With min_exp = 0: bin 1 is (0, 1], bin 2 is (1, 2], bin 3 is (2, 4]. *)
  let h = Hist.create ~buckets:8 () in
  Alcotest.(check int) "1.0 in bin 1" 1 (Hist.bucket_index h 1.0);
  Alcotest.(check int) "just above 1 in bin 2" 2 (Hist.bucket_index h 1.0001);
  Alcotest.(check int) "2.0 in bin 2" 2 (Hist.bucket_index h 2.0);
  Alcotest.(check int) "3.0 in bin 3" 3 (Hist.bucket_index h 3.0);
  Alcotest.(check int) "4.0 in bin 3" 3 (Hist.bucket_index h 4.0);
  Alcotest.(check (float 1e-9)) "bin 3 upper edge" 4.0 (Hist.bucket_upper h 3)

let test_histogram_overflow () =
  let h = Hist.create ~buckets:4 () in
  (* buckets = 4: bin 0 (<= 0), bin 1 (0,1], bin 2 (1,2], bin 3 overflow. *)
  Alcotest.(check int) "huge value in overflow bin" 3
    (Hist.bucket_index h 1e30);
  Alcotest.(check int) "infinity in overflow bin" 3
    (Hist.bucket_index h infinity);
  Alcotest.(check bool) "overflow upper edge is +inf" true
    (Hist.bucket_upper h 3 = infinity);
  (* A registry histogram keeps a float sum beside its Hist, exact for
     any finite value (Hist's own fixed-point sum needs |v| < 2^36). *)
  let reg = Metrics.create () in
  Metrics.observe (Metrics.histogram reg ~buckets:4 "h") 1e30;
  Metrics.observe (Metrics.histogram reg ~buckets:4 "h") 0.5;
  match Metrics.snapshot reg with
  | [ (_, _, _, Metrics.Histogram_sample { hist; sum }) ] ->
      Alcotest.(check int) "count" 2 (Hist.count hist);
      Alcotest.(check int) "overflow bin counted" 1 (Hist.bucket_count hist 3);
      Alcotest.(check (float 1e20)) "sum" 1e30 sum
  | _ -> Alcotest.fail "expected one histogram series"

let test_histogram_min_exp () =
  (* min_exp shifts the whole ladder: with min_exp = -14, bin 1 is
     (0, 2^-14] — sub-millisecond latencies stay distinguishable. *)
  let h = Hist.create ~buckets:24 ~min_exp:(-14) () in
  Alcotest.(check int) "2^-14 in bin 1" 1 (Hist.bucket_index h (Float.pow 2.0 (-14.0)));
  Alcotest.(check int) "2^-13 in bin 2" 2 (Hist.bucket_index h (Float.pow 2.0 (-13.0)));
  Alcotest.(check bool) "tiny value above zero not in bin 0" true
    (Hist.bucket_index h 1e-9 >= 1)

(* --- counters: label cardinality --- *)

let test_counter_label_identity () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "drops" ~labels:[ ("cause", "congestion") ] in
  (* Same name + same labels (any order) resolves to the same series. *)
  let a' = Metrics.counter reg "drops" ~labels:[ ("cause", "congestion") ] in
  let b = Metrics.counter reg "drops" ~labels:[ ("cause", "malicious") ] in
  Metrics.inc a;
  Metrics.add a' 2;
  Metrics.inc b;
  Alcotest.(check int) "same labels share the cell" 3 (Metrics.counter_value a);
  Alcotest.(check int) "distinct labels are distinct series" 1
    (Metrics.counter_value b);
  let series =
    List.filter (fun (name, _, _, _) -> name = "drops") (Metrics.snapshot reg)
  in
  Alcotest.(check int) "two series in the family" 2 (List.length series)

let test_counter_label_order_insensitive () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "x" ~labels:[ ("a", "1"); ("b", "2") ] in
  let b = Metrics.counter reg "x" ~labels:[ ("b", "2"); ("a", "1") ] in
  Metrics.inc a;
  Alcotest.(check int) "label order does not split the series" 1
    (Metrics.counter_value b)

let test_type_conflict_rejected () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "n");
  Alcotest.check_raises "re-registering as a gauge fails"
    (Invalid_argument "Metrics.gauge: n is not a gauge") (fun () ->
      ignore (Metrics.gauge reg "n"))

(* --- journal: bounded memory under sustained load --- *)

let test_journal_bounded_1m () =
  let j = Journal.create ~capacity:4096 () in
  let n = 1_000_000 in
  for i = 1 to n do
    Journal.record j i
  done;
  Alcotest.(check int) "total counts every offer" n (Journal.total j);
  Alcotest.(check int) "retained is capped at capacity" 4096 (Journal.retained j);
  Alcotest.(check int) "dropped is the excess" (n - 4096) (Journal.dropped j);
  (* The ring keeps exactly the newest 4096, oldest first. *)
  let contents = Journal.to_list j in
  Alcotest.(check int) "list length" 4096 (List.length contents);
  Alcotest.(check int) "oldest retained" (n - 4096 + 1) (List.hd contents);
  Alcotest.(check int) "newest retained" n (List.nth contents 4095)

let test_journal_under_capacity () =
  let j = Journal.create ~capacity:16 () in
  List.iter (Journal.record j) [ "a"; "b"; "c" ];
  Alcotest.(check int) "retained = total when under capacity" 3 (Journal.retained j);
  Alcotest.(check int) "nothing dropped" 0 (Journal.dropped j);
  Alcotest.(check (list string)) "order preserved" [ "a"; "b"; "c" ]
    (Journal.to_list j);
  Journal.clear j;
  Alcotest.(check int) "clear resets" 0 (Journal.total j)

(* --- JSON: emitter/parser round-trip --- *)

let test_json_roundtrip () =
  let open Export in
  let doc =
    Assoc
      [ ("s", String "a \"quoted\"\n\tstring");
        ("i", Int (-42));
        ("f", Float 3.25);
        ("big", Float 1.5e300);
        ("null", Null);
        ("flags", List [ Bool true; Bool false ]);
        ("nested", Assoc [ ("xs", List [ Int 1; Int 2; Int 3 ]) ]) ]
  in
  match of_string (to_string doc) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
      Alcotest.(check string) "round-trip is stable" (to_string doc)
        (to_string parsed)

let test_json_special_floats () =
  let open Export in
  (match of_string (to_string (Float nan)) with
  | Ok Null -> ()
  | _ -> Alcotest.fail "NaN must render as null");
  match of_string (to_string (Float infinity)) with
  | Ok (Float f) -> Alcotest.(check bool) "inf survives" true (f = infinity)
  | _ -> Alcotest.fail "infinity must parse back"

let test_json_accessors () =
  let open Export in
  match of_string {|{"a": {"b": [10, 2.5, "x"]}}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc ->
      let b = Option.get (member "a" doc) |> member "b" |> Option.get in
      let xs = Option.get (to_list_opt b) in
      Alcotest.(check (option int)) "int" (Some 10) (to_int (List.nth xs 0));
      Alcotest.(check (option (float 1e-9))) "float widens int" (Some 10.0)
        (to_float (List.nth xs 0));
      Alcotest.(check (option int)) "int truncates float" (Some 2)
        (to_int (List.nth xs 1));
      Alcotest.(check (option string)) "string" (Some "x")
        (to_string_opt (List.nth xs 2))

(* --- \u escape decoding --- *)

let parse_string_exn s =
  match Export.of_string s with
  | Ok (Export.String v) -> v
  | Ok _ -> Alcotest.failf "%s did not parse to a string" s
  | Error e -> Alcotest.failf "%s failed to parse: %s" s e

let test_unicode_escapes () =
  Alcotest.(check string) "ASCII escape" "A" (parse_string_exn {|"A"|});
  (* 2-byte UTF-8: U+00E9 LATIN SMALL LETTER E WITH ACUTE. *)
  Alcotest.(check string) "latin-1 supplement" "\xc3\xa9"
    (parse_string_exn {|"\u00e9"|});
  (* 3-byte UTF-8: U+20AC EURO SIGN. *)
  Alcotest.(check string) "BMP three-byte" "\xe2\x82\xac"
    (parse_string_exn {|"\u20ac"|});
  (* Surrogate halves (here U+1F600 as a pair) are not reassembled:
     each folds to '?'. *)
  Alcotest.(check string) "surrogate pair folds" "??"
    (parse_string_exn {|"\ud83d\ude00"|});
  (* Control characters round-trip through the emitter's \u form. *)
  let s = "ctl\x01\x1f" in
  Alcotest.(check string) "control chars round-trip" s
    (parse_string_exn (Export.to_string (Export.String s)));
  match Export.of_string {|"\uZZZZ"|} with
  | Ok _ -> Alcotest.fail "malformed \\u escape accepted"
  | Error _ -> ()

(* --- Prometheus text exposition: escaping and le edges --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_contains text needle =
  if not (contains text needle) then
    Alcotest.failf "missing %S in:\n%s" needle text

let test_prom_label_escaping () =
  let reg = Metrics.create () in
  (* backslash, double quote and newline — the three characters the
     exposition format requires escaping in label values. *)
  Metrics.inc (Metrics.counter reg "esc" ~labels:[ ("path", "a\\b\"c\nd") ]);
  let text = Export.prometheus_of_registry reg in
  check_contains text "esc{path=\"a\\\\b\\\"c\\nd\"} 1";
  (* No double escaping: the rendered line has exactly one backslash
     pair for the input backslash. *)
  if contains text "\\\\\\\\" then
    Alcotest.failf "label value double-escaped:\n%s" text

let test_prom_histogram_le_edges () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:4 "lat" ~labels:[ ("queue", "q0") ] in
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  Metrics.observe h 1e30;
  let text = Export.prometheus_of_registry reg in
  (* Finite bucket edges render as plain numbers, the overflow bin as
     +Inf, and the counts are cumulative. *)
  check_contains text "lat_bucket{queue=\"q0\",le=\"0\"} 0";
  check_contains text "lat_bucket{queue=\"q0\",le=\"1\"} 1";
  check_contains text "lat_bucket{queue=\"q0\",le=\"2\"} 2";
  check_contains text "lat_bucket{queue=\"q0\",le=\"+Inf\"} 3";
  check_contains text "lat_count{queue=\"q0\"} 3";
  check_contains text "# TYPE lat histogram"

(* --- journal: single-writer guard under domains --- *)

let test_journal_cross_domain_rejected () =
  let j = Journal.create ~capacity:16 () in
  Journal.record j 1;
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           match Journal.record j 2 with
           | () -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "cross-domain record raises" true raised;
  Alcotest.(check int) "owner's records intact" 1 (Journal.total j);
  (* clear releases ownership: another domain may claim the journal. *)
  Journal.clear j;
  let claimed =
    Domain.join
      (Domain.spawn (fun () ->
           match Journal.record j 3 with
           | () -> true
           | exception Invalid_argument _ -> false))
  in
  Alcotest.(check bool) "clear releases ownership" true claimed

let test_journal_per_domain_merge () =
  (* The supported multi-domain pattern: one journal per domain, merged
     at collection time.  Two domains hammer their own journals. *)
  let js = Array.init 2 (fun _ -> Journal.create ~capacity:4096 ()) in
  let doms =
    Array.mapi
      (fun i j ->
        Domain.spawn (fun () ->
            for k = 0 to 9_999 do
              Journal.record j ((i * 10_000) + k)
            done))
      js
  in
  Array.iter Domain.join doms;
  let merged = List.concat_map Journal.to_list (Array.to_list js) in
  Alcotest.(check int) "both rings full after the merge"
    (2 * 4096) (List.length merged);
  Array.iteri
    (fun i j ->
      Alcotest.(check int) "nothing lost beyond ring eviction" 10_000
        (Journal.total j);
      match Journal.to_list j with
      | newest_surviving :: _ ->
          Alcotest.(check int) "oldest survivor is total - capacity"
            ((i * 10_000) + 10_000 - 4096) newest_surviving
      | [] -> Alcotest.fail "empty journal after stress")
    js

(* --- golden: a simulate run's metrics export parses and conserves --- *)

let field path doc =
  List.fold_left
    (fun acc k -> Option.bind acc (Export.member k))
    (Some doc) path

let req_int path doc =
  match Option.bind (field path doc) Export.to_int with
  | Some v -> v
  | None -> Alcotest.failf "missing integer field %s" (String.concat "." path)

let test_simulate_metrics_conserve () =
  let path = Filename.temp_file "mrdetect_metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Quiet scenario output; the export file is what we check. *)
      let devnull = open_out (if Sys.win32 then "NUL" else "/dev/null") in
      let stdout_backup = Unix.dup Unix.stdout in
      flush stdout;
      Unix.dup2 (Unix.descr_of_out_channel devnull) Unix.stdout;
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 stdout_backup Unix.stdout;
          Unix.close stdout_backup;
          close_out devnull)
        (fun () ->
          Experiments.Simulate.run
            (Experiments.Simulate.Config.make_exn ~protocol:"chi"
               ~attack:(Experiments.Simulate.Drop_fraction 0.3) ~attacker:2
               ~duration:12.0 ~seed:7 ~flows:6 ~metrics:path
               Experiments.Simulate.Ring));
      let contents =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Export.of_string contents with
      | Error e -> Alcotest.failf "metrics file is not valid JSON: %s" e
      | Ok doc ->
          Alcotest.(check (option string)) "schema" (Some "mrdetect-metrics-v1")
            (Option.bind (field [ "schema" ] doc) Export.to_string_opt);
          let injected = req_int [ "conservation"; "injected" ] doc in
          let delivered = req_int [ "conservation"; "delivered" ] doc in
          let dropped = req_int [ "conservation"; "dropped" ] doc in
          let fragmented = req_int [ "conservation"; "fragmented" ] doc in
          let in_flight = req_int [ "conservation"; "in_flight" ] doc in
          Alcotest.(check bool) "some traffic ran" true (injected > 0);
          Alcotest.(check int) "packets conserve" injected
            (delivered + dropped + fragmented + in_flight);
          Alcotest.(check bool) "engine processed events" true
            (req_int [ "engine"; "events_processed" ] doc > 0);
          (* The registry view agrees with the conservation block. *)
          let metrics = Option.get (field [ "metrics" ] doc) in
          let series = Option.get (Export.to_list_opt metrics) in
          let sum_counter name =
            List.fold_left
              (fun acc s ->
                match Option.bind (Export.member "name" s) Export.to_string_opt with
                | Some n when n = name ->
                    acc + Option.value ~default:0
                            (Option.bind (Export.member "value" s) Export.to_int)
                | _ -> acc)
              0 series
          in
          Alcotest.(check int) "dropped counter family sums to the block"
            dropped (sum_counter "pkt_dropped_total"))

(* --- Export fuzz (fixed seed) --- *)

(* Floats that survive the emitter's 12-significant-digit rendering:
   finite, already rounded to 12 digits, and not integral below 1e15
   (those print as integers and read back as [Int]). *)
let gen_float =
  QCheck.Gen.(
    map
      (fun (m, e) ->
        let f = float_of_string (Printf.sprintf "%.12g" (ldexp m e)) in
        if Float.is_integer f && Float.abs f < 1e15 then 0.5 else f)
      (pair (float_range (-1.0) 1.0) (int_range (-60) 60)))

(* Arbitrary bytes: quotes, backslashes and control characters exercise
   every escape the emitter writes. *)
let gen_string =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\031' ] ])
      (int_bound 12))

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [ return Export.Null;
                 map (fun b -> Export.Bool b) bool;
                 map (fun i -> Export.Int i) int;
                 map (fun f -> Export.Float f) gen_float;
                 map (fun s -> Export.String s) gen_string ]
           in
           if depth = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun xs -> Export.List xs) (list_size (int_bound 5) (self (depth - 1))));
                 (1,
                  map
                    (fun kvs -> Export.Assoc kvs)
                    (list_size (int_bound 5) (pair gen_string (self (depth - 1))))) ]))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string j) = Ok j" ~count:500
    (QCheck.make ~print:Export.to_string gen_json)
    (fun j -> Export.of_string (Export.to_string j) = Ok j)

let gen_hist =
  QCheck.Gen.(
    map
      (fun ((buckets, min_exp), values) ->
        let h = Hist.create ~buckets ~min_exp () in
        List.iter (Hist.record h) values;
        h)
      (pair
         (pair (int_range 3 40) (int_range (-20) 10))
         (list_size (int_bound 50)
            (oneof [ float_range (-1e6) 1e6; float_range 0.0 1e-3; return 0.0 ]))))

let prop_hist_roundtrip =
  QCheck.Test.make ~name:"hist_of_json (json_of_hist h) = h" ~count:300
    (QCheck.make ~print:(fun h -> Export.to_string (Export.json_of_hist h)) gen_hist)
    (fun h ->
      match Export.hist_of_json (Export.json_of_hist h) with
      | Error _ -> false
      | Ok h' ->
          Export.json_of_hist h' = Export.json_of_hist h
          && Hist.count h' = Hist.count h
          && Hist.buckets h' = Hist.buckets h)

(* Byte pin on the whole metrics export of one run.  The .prom text is
   deterministic as it stands; the JSON document is pinned minus its
   wall-clock fields ("phases", and the engine's cpu_seconds_in_run and
   events_per_cpu_second), re-emitted through Export so the digest does
   not depend on anything but content.  The digests were recorded from a
   known-good build: a mismatch means an exported byte moved. *)
let run_quiet_metrics ?(protocol = "fatih") ?(topo = Experiments.Simulate.Ring) ~shards
    ~suffix () =
  let path = Filename.temp_file "mrdetect_pin" suffix in
  let devnull = open_out "/dev/null" in
  let stdout_backup = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel devnull) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 stdout_backup Unix.stdout;
      Unix.close stdout_backup;
      close_out devnull)
    (fun () ->
      Experiments.Simulate.run
        (Experiments.Simulate.Config.make_exn ~protocol ~duration:12.0 ~seed:7
           ~metrics:path ~shards topo));
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let without_wall_clock doc =
  let drop keys = function
    | Export.Assoc kvs ->
        Export.Assoc (List.filter (fun (k, _) -> not (List.mem k keys)) kvs)
    | j -> j
  in
  match drop [ "phases" ] doc with
  | Export.Assoc kvs ->
      Export.Assoc
        (List.map
           (fun (k, v) ->
             if k = "engine" then
               (k, drop [ "cpu_seconds_in_run"; "events_per_cpu_second" ] v)
             else (k, v))
           kvs)
  | j -> j

let check_export_pin ?protocol ?topo ~shards ~prom ~json () =
  let prom_text = run_quiet_metrics ?protocol ?topo ~shards ~suffix:".prom" () in
  Alcotest.(check string) "prometheus text digest" prom
    (Digest.to_hex (Digest.string prom_text));
  match Export.of_string (run_quiet_metrics ?protocol ?topo ~shards ~suffix:".json" ()) with
  | Error e -> Alcotest.failf "metrics file is not valid JSON: %s" e
  | Ok doc ->
      Alcotest.(check string) "json digest" json
        (Digest.to_hex (Digest.string (Export.to_string (without_wall_clock doc))))

(* Byte pins on the probe's wire journal.  [simulate --journal] JSONL
   and the [--trace 40] attacker dump of ring8/fatih (12 s, seed 7),
   without and with a byzantine chaos fault plan, plus the stdout and
   oracle report of a smoke [chaos --byzantine] sweep.  The digests were
   recorded while the journal still held packets: the snapshot records
   that replaced them must render every byte the same way. *)
let with_quiet_stdout f =
  let path = Filename.temp_file "mrdetect_pin" ".out" in
  let oc = open_out path in
  let stdout_backup = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel oc) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 stdout_backup Unix.stdout;
      Unix.close stdout_backup;
      close_out oc)
    f;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let read_and_remove path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let md5 s = Digest.to_hex (Digest.string s)

let check_journal_pin ~chaos ~stdout_md5 ~journal_md5 () =
  let faults =
    if not chaos then None
    else begin
      let g = Topology.Generate.ring ~n:8 in
      let plan =
        Faults.Chaos.generate ~seed:5 ~graph:g ~duration:12.0
          ~budget:Faults.Chaos.byzantine_budget ()
      in
      let path = Filename.temp_file "mrdetect_pin" ".faults" in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Faults.Schedule.to_string plan));
      Some path
    end
  in
  let journal = Filename.temp_file "mrdetect_pin" ".jsonl" in
  let out =
    Fun.protect
      ~finally:(fun () -> Option.iter Sys.remove faults)
      (fun () ->
        with_quiet_stdout (fun () ->
            Experiments.Simulate.run
              (Experiments.Simulate.Config.make_exn ~protocol:"fatih"
                 ~duration:12.0 ~seed:7 ~trace:40 ~journal ?faults
                 Experiments.Simulate.Ring)))
  in
  let jsonl = read_and_remove journal in
  Alcotest.(check bool) "journal is non-trivial" true
    (String.length jsonl > 100_000);
  Alcotest.(check string) "stdout (with --trace 40) digest" stdout_md5 (md5 out);
  Alcotest.(check string) "journal JSONL digest" journal_md5 (md5 jsonl)

let test_chaos_byzantine_report_pin () =
  let json = Filename.temp_file "mrdetect_pin" ".json" in
  let out =
    with_quiet_stdout (fun () ->
        Experiments.Fig_robustness.chaos_run ~seed:1 ~trials:2 ~smoke:true
          ~byzantine:true ~json ())
  in
  let report = read_and_remove json in
  (* The last stdout line names the (temporary) report path. *)
  let out =
    String.concat "\n"
      (List.filter
         (fun l -> not (String.ends_with ~suffix:json l))
         (String.split_on_char '\n' out))
  in
  Alcotest.(check string) "chaos --byzantine stdout digest"
    "81263cab9190aa6a37d4d6c06777103e" (md5 out);
  Alcotest.(check string) "oracle report digest"
    "7bebe685fea38c3405c34b9ab3a6a727" (md5 report)

let () =
  Alcotest.run "telemetry"
    [ ("histogram",
       [ Alcotest.test_case "zero and negative" `Quick test_histogram_zero_and_negative;
         Alcotest.test_case "bucket boundaries" `Quick test_histogram_boundaries;
         Alcotest.test_case "overflow bin" `Quick test_histogram_overflow;
         Alcotest.test_case "min_exp shift" `Quick test_histogram_min_exp ]);
      ("counters",
       [ Alcotest.test_case "label identity" `Quick test_counter_label_identity;
         Alcotest.test_case "label order" `Quick test_counter_label_order_insensitive;
         Alcotest.test_case "type conflict" `Quick test_type_conflict_rejected ]);
      ("journal",
       [ Alcotest.test_case "bounded under 1M events" `Quick test_journal_bounded_1m;
         Alcotest.test_case "under capacity" `Quick test_journal_under_capacity;
         Alcotest.test_case "cross-domain write rejected" `Quick
           test_journal_cross_domain_rejected;
         Alcotest.test_case "per-domain journals merge" `Quick
           test_journal_per_domain_merge ]);
      ("json",
       [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
         Alcotest.test_case "special floats" `Quick test_json_special_floats;
         Alcotest.test_case "accessors" `Quick test_json_accessors;
         Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
         QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x150a |])
           prop_json_roundtrip;
         QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x150b |])
           prop_hist_roundtrip ]);
      ("prometheus",
       [ Alcotest.test_case "label escaping" `Quick test_prom_label_escaping;
         Alcotest.test_case "histogram le edges" `Quick
           test_prom_histogram_le_edges ]);
      ("golden",
       [ Alcotest.test_case "simulate --metrics conserves" `Quick
           test_simulate_metrics_conserve;
         Alcotest.test_case "metrics export pinned K=0" `Quick
           (check_export_pin ~shards:0 ~prom:"efba477a8ac20a3711d2ea307314904e"
              ~json:"ac79b9186d2d3bec9d0fa8352d2f84ff");
         Alcotest.test_case "metrics export pinned K=2" `Quick
           (check_export_pin ~shards:2 ~prom:"2470915eacf0669e01ca39ad7d9300e3"
              ~json:"d8a2dceee4cdbf302ec26fc4e5a552f7");
         Alcotest.test_case "metrics export pinned K=1" `Quick
           (check_export_pin ~shards:1 ~prom:"2470915eacf0669e01ca39ad7d9300e3"
              ~json:"172e167a230fc4585ad6dad7fb8d8f6e");
         Alcotest.test_case "metrics export pinned K=4" `Quick
           (check_export_pin ~shards:4 ~prom:"2470915eacf0669e01ca39ad7d9300e3"
              ~json:"645cf28a08d5336715f9c6ff74e54b9a");
         Alcotest.test_case "metrics export pinned grid chi K=2" `Quick
           (check_export_pin ~protocol:"chi" ~topo:Experiments.Simulate.Grid ~shards:2
              ~prom:"1e06de27ca6481232c889d3fb464e784" ~json:"0b9fd623b92c552e3273c692ca9770f7");
         Alcotest.test_case "journal and trace pinned" `Quick
           (check_journal_pin ~chaos:false ~stdout_md5:"723a9090923bfd675ccaed980c2a1462"
              ~journal_md5:"0b1bc956f87a7bf6f0e776a799d9eae4");
         Alcotest.test_case "journal and trace pinned, chaos plan" `Quick
           (check_journal_pin ~chaos:true ~stdout_md5:"6b1afbe24193d796aab10cad541d0c49"
              ~journal_md5:"24731d6902b4b1e61d8e8d9696f1a6dd");
         Alcotest.test_case "chaos --byzantine report pinned" `Quick
           test_chaos_byzantine_report_pin ]) ]
