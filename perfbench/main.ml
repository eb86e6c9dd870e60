(* perfbench: the end-to-end and per-layer benchmark of deadmem.

     main.exe --workload paper-suite|pta-ladder|serve-mix --seed N
              --seconds S --trace 0|1
     main.exe --selftest

   With --trace 0 the last line of stdout is a JSON object holding every
   end-to-end metric; with --trace 1 it holds every per-layer metric,
   taken from traced operations interleaved with untraced ones, and a
   span file is written under perfbench/out/. Every output is checked;
   any mismatch makes "correct" false and the exit code 1. --selftest
   rebuilds the port references with the tree-walking engine. See
   perfbench/README.md for the workloads and metrics. *)

open Harness

let usage =
  "main.exe --workload paper-suite|pta-ladder|serve-mix --seed N --seconds S --trace 0|1\n\
  \       main.exe --selftest"

let workloads = [ "paper-suite"; "pta-ladder"; "serve-mix" ]

(* End-to-end metrics: name, unit. *)
let end_to_end =
  [
    ("setup_s", "s"); ("verdict_ms.p50", "ms"); ("verdict_ms.p90", "ms");
    ("run_ms.p50", "ms"); ("run_ms.p90", "ms"); ("latency_ms.p50", "ms");
    ("latency_ms.p90", "ms"); ("requests_per_s", "1/s"); ("peak_heap_mb", "MB");
  ]

(* Per-layer metrics: name, unit. README.md gives the end-to-end metric
   each should move, and on which workload. *)
let per_layer =
  [
    ("frontend.lex_ms", "ms"); ("frontend.parse_ms", "ms"); ("frontend.tokens", "count");
    ("frontend.tokens_per_ms", "1/ms"); ("frontend.alloc_mwords", "Mword");
    ("sema.check_ms", "ms"); ("sema.lookups", "count"); ("sema.lookup_hit_ratio", "ratio");
    ("sema.alloc_mwords", "Mword"); ("callgraph.build_ms", "ms"); ("callgraph.nodes", "count");
    ("callgraph.edges", "count"); ("callgraph.fallback_sites", "count"); ("pta.seed_ms", "ms");
    ("pta.solve_ms", "ms"); ("pta.constraints", "count"); ("pta.rounds", "count");
    ("pta.delta_props", "count"); ("pta.sets_interned", "count"); ("pta.memo_hits", "count");
    ("pta.alloc_mwords", "Mword"); ("pta.live_mwords", "Mword"); ("deadmem.liveness_ms", "ms");
    ("deadmem.alloc_mwords", "Mword"); ("deadmem.dead_members", "count");
    ("runtime.resolve_ms", "ms"); ("runtime.compile_ms", "ms");
    ("runtime.bytecode_instrs", "count"); ("runtime.lower_alloc_mwords", "Mword");
    ("runtime.vm_ms", "ms"); ("runtime.steps", "count"); ("runtime.dispatches", "count");
    ("runtime.dispatches_per_step", "ratio"); ("runtime.steps_per_us", "1/us");
    ("runtime.vm_alloc_mwords", "Mword"); ("server.queue_ms.p50", "ms");
    ("server.queue_ms.p90", "ms"); ("server.service_ms.p50", "ms");
    ("server.service_ms.p90", "ms"); ("server.worker_busy_pct", "%");
    ("server.source_cache_hit_ratio", "ratio"); ("server.analysis_cache_hit_ratio", "ratio");
    ("server.lower_cache_hit_ratio", "ratio"); ("server.unexpected_errors", "count");
    ("server.worker_restarts", "count"); ("bench.failed_share", "ratio");
    ("bench.cpu_per_wall", "ratio"); ("bench.calib_ms", "ms"); ("bench.steal_pct", "%");
    ("trace.overhead_pct", "%"); ("trace.coverage_pct", "%"); ("trace.spans_dropped", "count");
    ("trace.ops", "count");
  ]

let metrics spec values =
  List.filter_map
    (fun (name, m_unit) ->
      match List.assoc_opt name values with
      | Some v -> Some { m_name = name; m_unit; m_value = v }
      | None -> None)
    spec

(* A layer that does not run on a workload reads 0: PTA at the RTA
   tier, the server in-process, allocation and dispatch counts in the
   daemon, where two domains allocate at once and runs are not
   profiled. Only the steal share is omitted, where /proc/stat cannot
   be read. *)
let layer_metrics values =
  metrics per_layer
    (values
    @ List.filter_map
        (fun (name, _) -> if name = "bench.steal_pct" then None else Some (name, 0.))
        per_layer)

let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.
let per a b = if b > 0. then a /. b else 0.
let overhead_pct traced untraced = ((median traced /. median untraced) -. 1.) *. 100.

(* Diagnostics printed with every run, traced or not. *)
let host_values () =
  ( "bench.failed_share",
    per (float_of_int !failed) (float_of_int !attempted) )
  :: ("bench.cpu_per_wall", cpu_per_wall ())
  :: ("bench.calib_ms", calib_ms ())
  :: (match steal_pct () with Some s -> [ ("bench.steal_pct", s) ] | None -> [])

let print_host () =
  List.iter (fun (n, v) -> Printf.printf "%-36s %18.6g\n" n v) (host_values ())

(* -- end-to-end metrics ---------------------------------------------------------- *)

(* Timings are scaled to the nominal host speed (Harness.host_scale);
   the unscaled medians are printed beside them. *)
let e2e ~verdict ~run ~latency ~requests_per_s =
  [
    ("setup_s", median !setup_s);
    ("verdict_ms.p50", quantile verdict 0.5); ("verdict_ms.p90", quantile verdict 0.9);
    ("run_ms.p50", quantile run 0.5); ("run_ms.p90", quantile run 0.9);
    ("latency_ms.p50", quantile latency 0.5); ("latency_ms.p90", quantile latency 0.9);
    ("requests_per_s", requests_per_s); ("peak_heap_mb", !peak_heap_mb);
  ]

let print_unscaled ~verdict ~run ~latency =
  List.iter
    (fun (n, v) -> Printf.printf "%-36s %18.6g  ms, unscaled\n" n (median v))
    [ ("verdict_ms.p50", verdict); ("run_ms.p50", run); ("latency_ms.p50", latency) ]

(* -- per-layer metrics ----------------------------------------------------------- *)

(* Layers of the in-process workloads. The benchmark's spans wrap the
   public calls; the program's own spans inside them (callgraph, pta,
   pta.seed, resolve, bytecode) are subtracted from the span that holds
   them. pta.solve is the whole solve after seeding, compaction
   included. *)
let pipeline_layers =
  [
    { l_name = "frontend.lex"; l_span = "frontend.lex"; l_minus = [] };
    { l_name = "frontend.parse"; l_span = "frontend.parse"; l_minus = [] };
    { l_name = "sema.check"; l_span = "sema.check"; l_minus = [] };
    { l_name = "deadmem.liveness"; l_span = "deadmem.analyze"; l_minus = [ "callgraph" ] };
    { l_name = "callgraph.build"; l_span = "callgraph"; l_minus = [ "pta" ] };
    { l_name = "pta.seed"; l_span = "pta.seed"; l_minus = [] };
    { l_name = "pta.solve"; l_span = "pta"; l_minus = [ "pta.seed" ] };
    { l_name = "runtime.resolve"; l_span = "resolve"; l_minus = [] };
    { l_name = "runtime.compile"; l_span = "bytecode"; l_minus = [] };
    { l_name = "runtime.vm"; l_span = "runtime.run"; l_minus = [ "resolve"; "bytecode" ] };
  ]

(* Layers of serve-mix, from the spans the daemon emits. Two worker
   domains emit them at once, so they are summed by name; the nesting
   by name is fixed by the call structure. The serve.* phases keep
   what the library spans inside them do not cover: cache lookups,
   rendering. *)
let serve_layers =
  [
    { l_name = "frontend.lex"; l_span = "lex"; l_minus = [] };
    { l_name = "frontend.parse"; l_span = "parse"; l_minus = [] };
    { l_name = "sema.check"; l_span = "typecheck"; l_minus = [] };
    { l_name = "deadmem.liveness"; l_span = "liveness"; l_minus = [ "callgraph" ] };
    { l_name = "callgraph.build"; l_span = "callgraph"; l_minus = [ "pta" ] };
    { l_name = "pta.seed"; l_span = "pta.seed"; l_minus = [] };
    { l_name = "pta.solve"; l_span = "pta"; l_minus = [ "pta.seed" ] };
    { l_name = "runtime.resolve"; l_span = "resolve"; l_minus = [] };
    { l_name = "runtime.compile"; l_span = "bytecode"; l_minus = [] };
    { l_name = "runtime.vm"; l_span = "interp"; l_minus = [ "resolve"; "bytecode" ] };
    { l_name = "server.parse"; l_span = "serve.parse"; l_minus = [ "lex"; "parse"; "typecheck" ] };
    { l_name = "server.analyze"; l_span = "serve.analyze"; l_minus = [ "liveness" ] };
    { l_name = "server.run"; l_span = "serve.run"; l_minus = [ "interp" ] };
  ]

(* Values common to both kinds of workload, from layer self-times and
   summed counts. [ops] is the number of traced operations. *)
let layer_values ~rows ~ops ~total =
  let t = self_ms rows in
  let per_op x = per x ops in
  let fe_ms = t "frontend.lex" +. t "frontend.parse" in
  let steps = total "runtime.steps" in
  [
    ("frontend.lex_ms", per_op (t "frontend.lex"));
    ("frontend.parse_ms", per_op (t "frontend.parse"));
    ("frontend.tokens", per_op (total "frontend.tokens"));
    ("frontend.tokens_per_ms", per (total "frontend.tokens") fe_ms);
    ("sema.check_ms", per_op (t "sema.check"));
    ("sema.lookups", per_op (total "sema.lookups"));
    ( "sema.lookup_hit_ratio",
      ratio (total "sema.lookup_cache_hits") (total "sema.lookup_cache_misses") );
    ("callgraph.build_ms", per_op (t "callgraph.build"));
    ("callgraph.fallback_sites", per_op (total "callgraph.fallback_sites"));
    ("pta.seed_ms", per_op (t "pta.seed"));
    ("pta.solve_ms", per_op (t "pta.solve"));
    ("pta.constraints", per_op (total "pta.constraints"));
    ("pta.rounds", per_op (total "pta.rounds"));
    ("pta.delta_props", per_op (total "pta.delta_props"));
    ("pta.sets_interned", per_op (total "pta.sets_interned"));
    ("pta.memo_hits", per_op (total "pta.memo_hits"));
    ("deadmem.liveness_ms", per_op (t "deadmem.liveness"));
    ("runtime.resolve_ms", per_op (t "runtime.resolve"));
    ("runtime.compile_ms", per_op (t "runtime.compile"));
    ("runtime.vm_ms", per_op (t "runtime.vm"));
    ("runtime.steps", per_op steps);
    ("runtime.steps_per_us", per steps (t "runtime.vm" *. 1000.));
    ("trace.ops", ops);
  ]

let pipeline_per_layer (r : Pipeline.result) rows =
  let total n = Option.value (List.assoc_opt n r.totals) ~default:0. in
  let ops = float_of_int r.traced_ops in
  let mw n = total n /. ops /. 1e6 in
  let covered = List.fold_left (fun a (row : layer_row) -> a +. row.r_self) 0. rows in
  layer_values ~rows ~ops ~total
  @ [
      ("frontend.alloc_mwords", mw "frontend.alloc_words");
      ("sema.alloc_mwords", mw "sema.alloc_words");
      ("callgraph.nodes", total "callgraph.nodes" /. ops);
      ("callgraph.edges", total "callgraph.edges" /. ops);
      ("pta.alloc_mwords", mw "pta.alloc_words");
      ("pta.live_mwords", mw "pta.live_words");
      ("deadmem.alloc_mwords", mw "deadmem.alloc_words");
      ("deadmem.dead_members", total "deadmem.dead_members" /. ops);
      ("runtime.bytecode_instrs", total "runtime.bytecode_instrs" /. ops);
      ("runtime.lower_alloc_mwords", mw "runtime.lower_alloc_words");
      ("runtime.dispatches", total "runtime.dispatches" /. ops);
      ( "runtime.dispatches_per_step",
        per (total "runtime.dispatches") (total "runtime.profiled_steps") );
      ("runtime.vm_alloc_mwords", mw "runtime.vm_alloc_words");
      ( "trace.overhead_pct",
        overhead_pct (Pipeline.unit_ms r.traced_units) (Pipeline.unit_ms r.untraced) );
      ("trace.coverage_pct", 100. *. per covered r.traced_op_ms);
    ]

(* Layer rows, traced requests' wall time and per-layer values of
   serve-mix. Counts are the daemon's counters over the traced cycles,
   per traced request. *)
let serve_per_layer (r : Servemix.result) spans =
  let queue_ms = Servemix.hist_sum_ms "queue_us" in
  let rows =
    layer_rows spans serve_layers
    @ [ { r_name = "server.queue"; r_calls = 0; r_incl = queue_ms; r_self = queue_ms } ]
  in
  let op_ms = span_ms spans "client.request" in
  let ops = float_of_int (span_calls spans "client.request") in
  let c n = float_of_int (counter n) in
  let total = function
    | "frontend.tokens" -> c "lexer.tokens"
    | "pta.constraints" -> c "pta.copy_edges" +. c "pta.complex_constraints"
    | "pta.rounds" -> c "pta.solver_iters"
    | "callgraph.fallback_sites" -> c "callgraph.pta_fallback_sites"
    | "runtime.steps" -> c "interp.steps"
    | n -> c n
  in
  let covered = List.fold_left (fun a (row : layer_row) -> a +. row.r_self) 0. rows in
  let traced cycle = List.mem cycle r.traced_cycles in
  let means cycles = Servemix.cycle_means r ~scale:(Servemix.scale r) ~cycles (fun _ -> true) in
  ( rows,
    op_ms,
    layer_values ~rows ~ops ~total
    @ [
        ("server.queue_ms.p50", Servemix.hist_quantile "queue_us" 0.5);
        ("server.queue_ms.p90", Servemix.hist_quantile "queue_us" 0.9);
        ("server.service_ms.p50", Servemix.hist_quantile "service_us" 0.5);
        ("server.service_ms.p90", Servemix.hist_quantile "service_us" 0.9);
        ( "server.worker_busy_pct",
          100.
          *. per (Servemix.hist_sum_ms "service_us")
               (float_of_int Servemix.jobs *. Servemix.traced_wall_ms r) );
        ( "server.source_cache_hit_ratio",
          ratio (c "server.source_cache.hits") (c "server.source_cache.misses") );
        ( "server.analysis_cache_hit_ratio",
          ratio (c "server.analysis_cache.hits") (c "server.analysis_cache.misses") );
        ( "server.lower_cache_hit_ratio",
          ratio (c "runtime.lower_cache.hits") (c "runtime.lower_cache.misses") );
        ("server.unexpected_errors", float_of_int r.unexpected_errors);
        ("server.worker_restarts", float_of_int (Servemix.worker_restarts r.stats));
        ("trace.overhead_pct", overhead_pct (means traced) (means (fun c -> not (traced c))));
        ("trace.coverage_pct", 100. *. per covered op_ms);
      ] )

(* -- running a workload ---------------------------------------------------------- *)

let traced_report ~workload ~seed ~op_ms rows values =
  let dropped = Telemetry.spans_dropped () in
  if dropped <> 0 then problem (Printf.sprintf "%d spans dropped" dropped);
  let path = write_span_file ~workload ~seed in
  print_layer_rows ~op_ms rows;
  Printf.printf "span file: %s (%d spans)\n" path (List.length (Telemetry.Span.completed ()));
  (("trace.spans_dropped", float_of_int dropped) :: host_values ()) @ values

let run_workload ~workload ~seed ~seconds ~trace =
  match workload with
  | "paper-suite" | "pta-ladder" ->
      let r =
        if workload = "paper-suite" then Pipeline.run Pipeline.paper_suite ~seed ~seconds ~trace
        else Pipeline.run Pipeline.pta_ladder ~seed ~seconds ~trace
      in
      if trace then
        let rows = layer_rows (Telemetry.Span.completed ()) pipeline_layers in
        layer_metrics
          (traced_report ~workload ~seed ~op_ms:r.traced_op_ms rows (pipeline_per_layer r rows))
      else begin
        print_host ();
        let samples scaled f =
          List.map
            (fun (u : Pipeline.unit_sample) -> f u *. if scaled then u.u_scale else 1.)
            r.untraced
        in
        let verdict s = samples s (fun u -> u.u_verdict) and run s = samples s (fun u -> u.u_run) in
        let latency s = samples s (fun u -> u.u_verdict +. u.u_run) in
        print_unscaled ~verdict:(verdict false) ~run:(run false) ~latency:(latency false);
        let ops = List.fold_left (fun a (u : Pipeline.unit_sample) -> a + u.u_ops) 0 r.untraced in
        let ms = List.fold_left ( +. ) 0. (Pipeline.unit_ms r.untraced) in
        metrics end_to_end
          (e2e ~verdict:(verdict true) ~run:(run true) ~latency:(latency true)
             ~requests_per_s:(1000. *. float_of_int ops /. ms))
      end
  | _ ->
      let r = Servemix.run ~seed ~seconds ~trace in
      Servemix.print_kinds r;
      if trace then
        let spans = Telemetry.Span.completed () in
        let rows, op_ms, values = serve_per_layer r spans in
        layer_metrics (traced_report ~workload ~seed ~op_ms rows values)
      else begin
        print_host ();
        let all _ = true in
        let means scale p = Servemix.cycle_means r ~scale ~cycles:all p in
        let verdict s = means s Servemix.is_verdict in
        let run s = means s (fun k -> k = Servemix.Run) in
        let unscaled _ = 1. and scaled = Servemix.scale r in
        print_unscaled ~verdict:(verdict unscaled) ~run:(run unscaled)
          ~latency:(means unscaled all);
        metrics end_to_end
          (e2e ~verdict:(verdict scaled) ~run:(run scaled) ~latency:(means scaled all)
             ~requests_per_s:(Servemix.requests_per_s r ~scale:scaled ~cycles:all))
      end

(* -- self-test ------------------------------------------------------------------- *)

(* Rebuild every port's reference row with the tree-walking engine and
   compare it with [Refs.ports]; then confirm the comparison rejects a
   corrupted row. Exit 0 only if both hold. *)
let selftest () =
  let rebuild (b : Benchmarks.Suite.t) =
    let prog = Sema.Type_check.check_source ~file:(b.name ^ ".mcc") b.source in
    let res = Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog in
    let dead = List.map Sema.Member.to_string (Deadmem.Liveness.dead_members res) in
    Refs.of_outcome ~name:b.name ~dead:(List.sort compare dead)
      (Runtime.Interp.run ~engine:Runtime.Interp.Tree ~dead:(Deadmem.Liveness.dead_set res) prog)
  in
  let rebuilt = List.map rebuild Benchmarks.Suite.all in
  let diff refs =
    List.concat_map
      (fun (r : Refs.port) ->
        match List.find_opt (fun (x : Refs.port) -> x.name = r.name) refs with
        | Some x -> Refs.diff x r
        | None -> [ r.name ^ ": no reference row" ])
      rebuilt
    @ if List.length refs = List.length rebuilt then [] else [ "row count differs" ]
  in
  let mismatched = diff Refs.ports in
  let corrupted =
    List.map
      (fun (r : Refs.port) -> if r.name = "sched" then { r with hwm = r.hwm + 8 } else r)
      Refs.ports
  in
  let caught =
    match diff corrupted with [ m ] -> String.starts_with ~prefix:"sched high-water mark" m | _ -> false
  in
  (* the ladders' expected runtime error, read from the generated text,
     against the tree engine over a spread of generator seeds *)
  let ladder_errors =
    List.filter_map
      (fun seed ->
        let l = Pipeline.make_ladder seed in
        let prog = Sema.Type_check.check_source ~file:l.l_file l.l_src in
        match Runtime.Interp.run ~engine:Runtime.Interp.Tree prog with
        | exception Runtime.Value.Runtime_error m when m = l.l_error -> None
        | exception Runtime.Value.Runtime_error m -> Some (l.l_file ^ ": " ^ m)
        | _ -> Some (l.l_file ^ ": ran to completion"))
      (Pipeline.ladder_seeds @ List.init 12 (fun i -> 4 + (i * 7919)))
  in
  List.iter (fun e -> Printf.printf "selftest: ladder outcome differs: %s\n" e) ladder_errors;
  List.iter (fun m -> Printf.printf "selftest: tree engine differs from refs.ml: %s\n" m) mismatched;
  Printf.printf "selftest: %d rows rebuilt, %d fields differ; corrupted row caught: %b\n"
    (List.length rebuilt) (List.length mismatched) caught;
  Printf.printf "selftest: %d ladder outcomes differ from the generated text\n"
    (List.length ladder_errors);
  if mismatched = [] && caught && ladder_errors = [] then 0 else 1

(* A run that cannot finish in time is a failure, not a hang: set-ups,
   checks and reporting get this long beyond the measured seconds. *)
let watchdog_margin_s = 120.

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--selftest", Arg.Set self, " check the port references against the tree engine");
    ]
  in
  (try
     Arg.parse_argv Sys.argv (Arg.align spec)
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  if !self then exit (selftest ());
  if not (List.mem !workload workloads) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline ("usage: " ^ usage);
    exit 2
  end;
  ignore
    (Thread.create
       (fun () ->
         Thread.delay (float_of_int !seconds +. watchdog_margin_s);
         prerr_endline "perfbench: watchdog expired";
         Unix._exit 3)
       ());
  Telemetry.set_enabled false;
  Telemetry.reset ();
  Telemetry.set_span_cap (Some span_cap);
  let ms = run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  exit (finish ms)
