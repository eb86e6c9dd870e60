(* Measurement plumbing shared by the three workloads: clocks and
   allocation counters, quantiles, failure and determinism bookkeeping,
   the measured window with its spread-out set-ups, host-noise
   diagnostics, span self-times, and the result line. *)

let now = Unix.gettimeofday
let ms_between t0 t1 = (t1 -. t0) *. 1000.

(* Words allocated by the calling domain so far: minor words read from
   the allocation pointer, plus words allocated directly in the major
   heap (major minus promoted). Repeats of one single-domain input give
   identical deltas. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* -- quantiles -------------------------------------------------------------- *)

(* Nearest-rank quantile. *)
let quantile (xs : float list) q =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* A p90 is reported only from at least this many samples, so that ten
   of them lie beyond it. Every window runs until it holds this many. *)
let min_samples = 100

(* -- failures --------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let shown = ref 0
let mu = Mutex.create ()

(* Count one operation; a non-empty error list makes it a failure. The
   first few failures are printed to stderr. *)
let record_op errs =
  Mutex.protect mu @@ fun () ->
  incr attempted;
  if errs <> [] then begin
    incr failed;
    if !shown < 10 then begin
      incr shown;
      List.iter (fun e -> prerr_endline ("perfbench: FAIL " ^ e)) errs
    end
  end

let expect name want got =
  if want = got then [] else [ Printf.sprintf "%s: want %s, got %s" name want got ]

let expect_int name want got = expect name (string_of_int want) (string_of_int got)
let show_opt = function Some v -> string_of_int v | None -> "missing"

(* Failures outside any one operation (dropped spans, unreadable stats):
   they make the run incorrect without being an operation. *)
let problems = ref 0

let problem msg =
  incr problems;
  prerr_endline ("perfbench: FAIL " ^ msg)

(* -- deterministic counts --------------------------------------------------- *)

(* The first occurrence of [key] records its counts; every repeat must
   reproduce them exactly. The returned errors fail the operation. *)
let det_table : (string, (string * int) list) Hashtbl.t = Hashtbl.create 16

let det_check key counts =
  match Hashtbl.find_opt det_table key with
  | None ->
      Hashtbl.replace det_table key counts;
      []
  | Some prev ->
      List.filter_map
        (fun (name, v) ->
          match List.assoc_opt name prev with
          | Some p when p = v -> None
          | p ->
              Some
                (Printf.sprintf "count %s of %s did not repeat: %s then %d" name key
                   (match p with Some p -> string_of_int p | None -> "-")
                   v))
        counts

let counter name = Telemetry.Counter.value (Telemetry.Counter.make name)

(* -- host-noise diagnostics --------------------------------------------------- *)

(* (steal, total) jiffies of the whole host, from the first line of
   /proc/stat; [None] where it cannot be read. *)
let read_steal () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | "cpu" :: fields ->
        let v = List.map int_of_string fields in
        let steal = if List.length v > 7 then List.nth v 7 else 0 in
        (* guest time is already counted in user time *)
        let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v) in
        Some (steal, total)
    | _ -> None
  with _ -> None

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* -- the measured window ------------------------------------------------------ *)

(* Time spent in the window's segments, with the process CPU time and
   host steal accumulated over the same stretches. *)
type window = {
  mutable w_wall : float;
  mutable w_cpu : float;
  mutable w_steal : (int * int) option;
}

let window = { w_wall = 0.; w_cpu = 0.; w_steal = Some (0, 0) }

(* Run [f] as one segment of the window. *)
let in_window f =
  let s0 = read_steal () and c0 = cpu_s () and t0 = now () in
  let r = f () in
  let t1 = now () and c1 = cpu_s () and s1 = read_steal () in
  window.w_wall <- window.w_wall +. (t1 -. t0);
  window.w_cpu <- window.w_cpu +. (c1 -. c0);
  (window.w_steal <-
     match (window.w_steal, s0, s1) with
     | Some (s, t), Some (a0, b0), Some (a1, b1) -> Some (s + a1 - a0, t + b1 - b0)
     | _ -> None);
  r

let cpu_per_wall () = if window.w_wall > 0. then window.w_cpu /. window.w_wall else 0.

let steal_pct () =
  match window.w_steal with
  | Some (s, t) when t > 0 -> Some (100. *. float_of_int s /. float_of_int t)
  | Some _ -> Some 0.
  | None -> None

(* -- host speed ---------------------------------------------------------------- *)

(* The shared host's speed changes under the benchmark: the same code
   ran 1.9x slower for minutes at a time, in CPU time as well as wall
   time and with next to no steal, so medians of runs minutes apart
   measured the host. A calibration kernel, the benchmark's own code
   and none of the program's, is timed right before and right after
   every timed unit and set-up, and each timing sample is scaled by
   [calib_nominal_ms] over the mean of the two: it reads in ms at the
   host speed where the kernel takes [calib_nominal_ms]. The kernel
   mixes what the host's slow phases slow down: branchy bytecode-style
   dispatch, short-lived allocation, and string-keyed hashing and map
   lookups. A pointer chase through a large array or a plain arithmetic
   loop did not slow with them. *)
let calib_nominal_ms = 20.

type insn = Add of int | Sub of int | Mul of int | Nop | Jz of int | Jmp of int

let calib_code =
  Array.init 997 (fun i ->
      match i * 7919 mod 6 with
      | 0 -> Add i
      | 1 -> Sub 3
      | 2 -> Mul 3
      | 3 -> Nop
      | 4 -> Jz (i * 31 mod 997)
      | _ -> Jmp (i * 131 mod 997))

let calib_dispatch steps =
  let acc = ref 1 and pc = ref 0 in
  for _ = 1 to steps do
    (match calib_code.(!pc) with
    | Add k -> acc := !acc + k; incr pc
    | Sub k -> acc := !acc - k; incr pc
    | Mul k -> acc := !acc * k land 0xfffff; incr pc
    | Nop -> incr pc
    | Jz t -> if !acc land 1 = 0 then pc := t else incr pc
    | Jmp t -> pc := t);
    if !pc >= Array.length calib_code then pc := 0
  done;
  !acc

let calib_alloc lists =
  let s = ref 0 in
  for _ = 1 to lists do
    s := !s + List.length (List.init 1000 (fun i -> (i, i)))
  done;
  !s

module String_map = Map.Make (String)

let calib_keys = Array.init 512 (fun i -> "k" ^ string_of_int (i * 7919))

let calib_tables rounds =
  let h = Hashtbl.create 64 and s = ref 0 in
  for r = 1 to rounds do
    let m = ref String_map.empty in
    Array.iteri
      (fun i k ->
        Hashtbl.replace h k (i + r);
        m := String_map.add k i !m)
      calib_keys;
    Array.iter (fun k -> s := !s + Hashtbl.find h k + String_map.find k !m) calib_keys;
    Hashtbl.reset h
  done;
  !s

(* Every calibration of the run, in ms; the latest is [List.hd]. *)
let calibrations = ref []

let calibrate () =
  let t0 = now () in
  let v = calib_dispatch 1_500_000 + calib_alloc 500 + calib_tables 40 in
  ignore (Sys.opaque_identity v);
  let ms = ms_between t0 (now ()) in
  calibrations := ms :: !calibrations;
  ms

(* The scale of a sample timed between calibrations [before] and [after]. *)
let host_scale before after = calib_nominal_ms /. ((before +. after) /. 2.)

let calib_ms () = median !calibrations

(* Peak major heap in MB, read once after a fixed amount of work (the
   first set-up in-process) so it repeats on single-domain workloads. *)
let peak_heap_mb = ref nan

let note_peak_heap () =
  peak_heap_mb :=
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set-ups are timed [setups] times per run, spread across it: one
   before the window, one between each pair of its segments, one after
   it. A burst of set-ups at process start measured the heap's first
   growth and whatever the host did in those few seconds. Each is
   scaled to the nominal host speed like every other timing. The first
   runs before any calibration, and the peak heap is read right after
   it, so the calibration's allocation is not in that reading; its
   scale comes from the calibration after it alone. The later ones
   start from a collected heap. *)
let setups = 5
let setup_s = ref []

let timed_setup f =
  let first = !setup_s = [] in
  let before = if first then None else Some (calibrate ()) in
  if not first then Gc.full_major ();
  let t0 = now () in
  let v = f () in
  let s = now () -. t0 in
  if first then note_peak_heap ();
  let after = calibrate () in
  setup_s := (s *. host_scale (Option.value before ~default:after) after) :: !setup_s;
  v

(* [run_segments ~seconds ~setup ~unit ~enough] alternates timed
   set-ups with segments of the window. Segment [i] calls [unit state k]
   for k = 0, 1, ... (numbered across the whole run) until its share of
   [seconds] is used up; the last segment also continues until
   [enough ()] holds, so a slow host still yields a full sample count.
   A calibration follows every unit, and the host scale of the unit,
   from the calibrations on either side of it, goes to the function the
   unit returned, which records the unit's samples. *)
let run_segments ~seconds ~setup ~unit ~enough =
  let k = ref 0 in
  let segs = setups - 1 in
  let seg_s = float_of_int seconds /. float_of_int segs in
  let state = ref (timed_setup setup) in
  for i = 1 to segs do
    in_window (fun () ->
        let deadline = now () +. seg_s in
        let before = ref (List.hd !calibrations) in
        while now () < deadline || (i = segs && not (enough ())) do
          let record = unit !state !k in
          let after = calibrate () in
          record (host_scale !before after);
          before := after;
          incr k
        done);
    state := timed_setup setup
  done

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* -- spans and layer self-times ---------------------------------------------- *)

(* Traced units (passes or cycles) behind one traced run; as many
   untraced ones alternate with them. *)
let traced_quota = 30

(* Largest span journal a traced run may fill. Each traced run is sized
   well below it; a dropped span fails the run. *)
let span_cap = 200_000

(* Total duration in ms of the completed spans named [name]. *)
let span_ms spans name =
  List.fold_left
    (fun acc (s : Telemetry.Span.completed) ->
      if s.sp_name = name then acc +. (s.sp_dur_us /. 1000.) else acc)
    0. spans

let span_calls spans name =
  List.length (List.filter (fun (s : Telemetry.Span.completed) -> s.sp_name = name) spans)

(* A layer: its span, and the spans of other layers nested inside it
   whose time is subtracted to give its self time. Nesting follows from
   the call structure (the callgraph span always holds the pta spans,
   and so on), so totals by name give self times even for spans that
   several domains emitted at once. *)
type layer = { l_name : string; l_span : string; l_minus : string list }

type layer_row = { r_name : string; r_calls : int; r_incl : float; r_self : float }

let layer_rows spans layers =
  List.map
    (fun l ->
      let incl = span_ms spans l.l_span in
      let self = List.fold_left (fun a c -> a -. span_ms spans c) incl l.l_minus in
      { r_name = l.l_name; r_calls = span_calls spans l.l_span; r_incl = incl; r_self = self })
    layers

let self_ms rows name =
  match List.find_opt (fun r -> r.r_name = name) rows with
  | Some r -> r.r_self
  | None -> 0.

let print_layer_rows ~op_ms rows =
  Printf.printf "%-26s %8s %12s %12s %8s\n" "layer (self time)" "calls" "incl_ms" "self_ms"
    "of_ops";
  List.iter
    (fun r ->
      Printf.printf "%-26s %8d %12.2f %12.2f %7.1f%%\n" r.r_name r.r_calls r.r_incl r.r_self
        (if op_ms > 0. then 100. *. r.r_self /. op_ms else 0.))
    rows

(* The span file: every span in the journal, the benchmark's own and the
   program's, as Chrome trace-event JSON under perfbench/out/. *)
let write_span_file ~workload ~seed =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.json" workload seed) in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Telemetry.trace_json ()));
  path

(* -- result ----------------------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print the metric table, then the result object as the last line of
   stdout. Returns the process exit code. *)
let finish (ms : metric list) =
  Printf.printf "%-36s %18s  %s\n" "metric" "value" "unit";
  List.iter (fun m -> Printf.printf "%-36s %18.6g  %s\n" m.m_name m.m_value m.m_unit) ms;
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) ms in
  if not finite then problem "a metric is not finite";
  let correct = !failed = 0 && !problems = 0 in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct !attempted !failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.m_name
              (if Float.is_finite m.m_value then json_number m.m_value else "null")
              m.m_unit)
          ms));
  if correct then 0 else 1
