(* Differential tests for the bytecode engine (PR 5).

   [Interp.run ~engine:Bytecode] must be observably identical to the
   resolved-tree walker it replaced. The benchmark differential replays
   every benchmark under both engines and compares everything the tree
   engine reports: output digest, return value, step and allocation
   counts, and the full profile snapshot.

   The qcheck properties then stress the parts the lowering changed the
   most: jump-target wiring (random nested if/while/for trees with
   break/continue — every mis-patched branch target either diverges the
   printed trace or the step count) and short-circuit evaluation
   (random &&/||/! trees over side-effecting probes, where evaluating
   one operand too many or too few is visible in the output).

   The error-parity cases pin the two failure channels: structured
   runtime errors must carry the tree engine's exact message, and
   resource limits must trip at the same tick — every step budget from
   1 up to what a program needs ends the same way (out of steps,
   finished, or failed at run time) under the tree engine, the typed VM
   and the all-boxed VM. *)

open QCheck

let allocs_counter = Telemetry.Counter.make "interp.allocations"

(* Run [prog] under [engine] observing the allocation counter, restoring
   the previous telemetry state afterwards. *)
let run_counted ~engine prog =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let before = Telemetry.Counter.value allocs_counter in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let outcome = Runtime.Interp.run ~engine prog in
      (outcome, Telemetry.Counter.value allocs_counter - before))

let check_outcomes name (ot : Runtime.Interp.outcome) at
    (ob : Runtime.Interp.outcome) ab =
  let check what = Util.check_int (name ^ ": " ^ what) in
  check "return value" ot.return_value ob.return_value;
  Util.check_string (name ^ ": output md5")
    (Digest.to_hex (Digest.string ot.output))
    (Digest.to_hex (Digest.string ob.output));
  check "interp.steps" ot.steps ob.steps;
  check "interp.allocations" at ab;
  let st = ot.snapshot and sb = ob.snapshot in
  check "object_space" st.object_space sb.object_space;
  check "dead_space" st.dead_space sb.dead_space;
  check "high_water_mark" st.high_water_mark sb.high_water_mark;
  check "high_water_mark_reduced" st.high_water_mark_reduced
    sb.high_water_mark_reduced;
  check "num_objects" st.num_objects sb.num_objects;
  check "scalar_bytes" st.scalar_bytes sb.scalar_bytes;
  check "leaked_objects" st.leaked_objects sb.leaked_objects

let t_benchmark_engine_differential () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Benchmarks.Suite.program b in
      let ot, at = run_counted ~engine:Runtime.Interp.Tree prog in
      let ob, ab = run_counted ~engine:Runtime.Interp.Bytecode prog in
      check_outcomes b.name ot at ob ab)
    Benchmarks.Suite.all

(* -- jump-target wiring: random nested control flow ----------------------------- *)

(* A statement tree rendered into a [main] that traces its execution
   through [print_int]. While/for loops get a fresh bounded counter each
   so every generated program terminates; break/continue only appear
   inside a loop. The compare-and-branch fusion, the cascade folding and
   the post-patch peephole all rewrite branch operands, so the property
   that the printed trace and the step count survive lowering exercises
   every patch site. *)
type cstmt =
  | CTrace of int
  | CIf of int * cstmt list * cstmt list  (* if (acc % k == 0) ... else ... *)
  | CWhile of int * cstmt list  (* fresh counter, bound *)
  | CFor of int * cstmt list  (* fresh counter, bound *)
  | CBreakIf of int  (* inside a loop: if (acc % k == 0) break; *)
  | CContinueIf of int  (* inside a loop: if (acc % k == 0) continue; *)

let gen_cstmts =
  let open Gen in
  let leaf ~in_loop =
    if in_loop then
      frequency
        [
          (4, map (fun k -> CTrace k) (int_range 0 99));
          (1, map (fun k -> CBreakIf (k + 2)) (int_range 0 3));
          (1, map (fun k -> CContinueIf (k + 2)) (int_range 0 3));
        ]
    else map (fun k -> CTrace k) (int_range 0 99)
  in
  let rec stmt ~in_loop depth =
    if depth = 0 then leaf ~in_loop
    else
      frequency
        [
          (3, leaf ~in_loop);
          ( 2,
            let* k = int_range 2 5 in
            let* t = block ~in_loop (depth - 1) in
            let* e = block ~in_loop (depth - 1) in
            return (CIf (k, t, e)) );
          ( 2,
            let* bound = int_range 1 3 in
            let* body = block ~in_loop:true (depth - 1) in
            return (CWhile (bound, body)) );
          ( 1,
            let* bound = int_range 1 3 in
            let* body = block ~in_loop:true (depth - 1) in
            return (CFor (bound, body)) );
        ]
  and block ~in_loop depth =
    Gen.list_size (int_range 1 3) (stmt ~in_loop depth)
  in
  block ~in_loop:false 3

let render_cstmts stmts =
  let buf = Buffer.create 512 in
  let fresh = ref 0 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec emit s =
    match s with
    | CTrace k ->
        pr "  acc = acc * 7 + %d;\n" k;
        pr "  print_int(acc);\n"
    | CIf (k, t, e) ->
        pr "  if (acc %% %d == 0) {\n" k;
        List.iter emit t;
        pr "  } else {\n";
        List.iter emit e;
        pr "  }\n"
    | CWhile (bound, body) ->
        let v = !fresh in
        incr fresh;
        pr "  int w%d = 0;\n" v;
        pr "  while (w%d < %d) {\n" v bound;
        pr "    w%d = w%d + 1;\n" v v;
        List.iter emit body;
        pr "  }\n"
    | CFor (bound, body) ->
        let v = !fresh in
        incr fresh;
        pr "  for (int f%d = 0; f%d < %d; f%d = f%d + 1) {\n" v v bound v v;
        List.iter emit body;
        pr "  }\n"
    | CBreakIf k -> pr "  if (acc %% %d == 0) { break; }\n" k
    | CContinueIf k -> pr "  acc = acc + 1; if (acc %% %d == 0) { continue; }\n" k
  in
  Buffer.add_string buf "int main() {\n  int acc = 1;\n";
  List.iter emit stmts;
  Buffer.add_string buf "  return acc % 200;\n}\n";
  Buffer.contents buf

let engines_agree src =
  let prog = Util.check_source src in
  let ot, at = run_counted ~engine:Runtime.Interp.Tree prog in
  let ob, ab = run_counted ~engine:Runtime.Interp.Bytecode prog in
  ot.return_value = ob.return_value
  && String.equal ot.output ob.output
  && ot.steps = ob.steps && at = ab

let prop_nested_control_flow =
  Test.make ~name:"bytecode: nested control flow matches tree engine"
    ~count:150
    (make ~print:render_cstmts gen_cstmts)
    (fun stmts -> engines_agree (render_cstmts stmts))

(* -- short-circuit evaluation ---------------------------------------------------- *)

(* Random boolean trees over side-effecting probes: [probe] prints its
   id, so both which operands are evaluated and in what order are
   visible in the output. *)
type bexpr =
  | BProbe of int * bool
  | BAnd of bexpr * bexpr
  | BOr of bexpr * bexpr
  | BNot of bexpr
  | BCmp of int * int

let gen_bexpr =
  let open Gen in
  let leaf =
    oneof
      [
        map2 (fun id v -> BProbe (id, v)) (int_range 0 99) bool;
        map2 (fun a b -> BCmp (a, b)) (int_range 0 5) (int_range 0 5);
      ]
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (2, map2 (fun a b -> BAnd (a, b)) (expr (depth - 1)) (expr (depth - 1)));
          (2, map2 (fun a b -> BOr (a, b)) (expr (depth - 1)) (expr (depth - 1)));
          (1, map (fun a -> BNot a) (expr (depth - 1)));
        ]
  in
  expr 4

let rec render_bexpr b =
  match b with
  | BProbe (id, v) -> Printf.sprintf "probe(%d, %d)" id (if v then 1 else 0)
  | BAnd (a, b) -> Printf.sprintf "(%s && %s)" (render_bexpr a) (render_bexpr b)
  | BOr (a, b) -> Printf.sprintf "(%s || %s)" (render_bexpr a) (render_bexpr b)
  | BNot a -> Printf.sprintf "(!%s)" (render_bexpr a)
  | BCmp (a, b) -> Printf.sprintf "(%d < %d)" a b

let render_bprog b =
  Printf.sprintf
    {|int probe(int id, int v) { print_int(id); return v; }
int main() {
  if (%s) { print_int(1000); } else { print_int(2000); }
  return 0;
}
|}
    (render_bexpr b)

let prop_short_circuit =
  Test.make ~name:"bytecode: short-circuit evaluation matches tree engine"
    ~count:200
    (make ~print:render_bprog gen_bexpr)
    (fun b -> engines_agree (render_bprog b))

(* -- error parity ---------------------------------------------------------------- *)

let run_error ~engine ?step_limit prog =
  match Runtime.Interp.run ~engine ?step_limit prog with
  | exception Runtime.Value.Runtime_error m -> `Runtime_error m
  | exception Runtime.Value.Limit_exceeded m -> `Limit m
  | o -> `Ok o.Runtime.Interp.return_value

let t_missing_member_error_parity () =
  let prog =
    Util.check_source
      {|class A { public: int x; };
        class B { public: int y; };
        int main() { A a; a.x = 1; B *p = (B*)&a; return p->y; }|}
  in
  match
    ( run_error ~engine:Runtime.Interp.Tree prog,
      run_error ~engine:Runtime.Interp.Bytecode prog )
  with
  | `Runtime_error mt, `Runtime_error mb ->
      Util.check_string "identical structured error" mt mb;
      Util.check_bool "names class and member" true
        (Util.contains_sub ~sub:"object of class A" mt
        && Util.contains_sub ~sub:"B::y" mt)
  | _ -> Alcotest.fail "expected Runtime_error from both engines"

(* The step-budget sweep: run [src] with every budget k = 1, 2, ...
   until the tree engine stops running out of steps, under the tree
   engine, the typed VM and the all-boxed VM (DEADMEM_BOXED=1; each
   configuration checks its own copy, since the lowering cache is keyed
   on the program's identity). All three must end the same way at every
   k. A tick moved one instruction early or late shifts the budget at
   which a run finishes, or — before an erroring instruction — the
   boundary between the limit error and the runtime error. Returns the
   first budget at which the run no longer hits the limit, with that
   outcome and the limit message just before it, or the first
   disagreement. *)
let step_sweep src =
  let configs =
    List.map
      (fun (engine, boxed) -> (engine, boxed, Util.check_source src))
      [
        (Runtime.Interp.Tree, false);
        (Runtime.Interp.Bytecode, false);
        (Runtime.Interp.Bytecode, true);
      ]
  in
  let at k (engine, boxed, prog) =
    Test_typed_slots.with_boxed ~boxed (fun () ->
        run_error ~engine ~step_limit:k prog)
  in
  let rec go k last_limit =
    match List.map (at k) configs with
    | t :: rest when List.exists (fun o -> o <> t) rest -> Error (k, t :: rest)
    | `Limit m :: _ -> go (k + 1) m
    | t :: _ -> Ok (k, t, last_limit)
    | [] -> assert false
  in
  go 1 ""

let show_outcome = function
  | `Ok r -> Printf.sprintf "ok %d" r
  | `Limit m -> "limit: " ^ m
  | `Runtime_error m -> "runtime error: " ^ m

let sweep_exn name src =
  match step_sweep src with
  | Ok r -> r
  | Error (k, outs) ->
      Alcotest.failf "%s: engines disagree at step budget %d: %s" name k
        (String.concat " / " (List.map show_outcome outs))

let t_step_limit_same_tick () =
  let loop =
    {|int main() {
        int i = 0;
        int acc = 0;
        while (i < 50) { acc = acc + i; i = i + 1; }
        return acc % 100;
      }|}
  in
  let k, last, msg = sweep_exn "loop" loop in
  Util.check_int "finishes at the budget it needs"
    (Util.run loop).Runtime.Interp.steps k;
  Util.check_bool "finishes at the exact budget" true (last = `Ok 25);
  Util.check_bool "mentions the step limit below it" true
    (Util.contains_sub ~sub:"step limit exceeded" msg);
  (* a list walk that runs off its end: the last budgets before the
     null dereference must still trip the limit, and the first one that
     reaches it must fail with the runtime error *)
  let k, last, _ =
    sweep_exn "null walk"
      {|class Node { public: int v; Node *next; };
        int sum(Node *p, int n) {
          int acc = 0;
          for (int j = 0; j < n; j = j + 1) {
            if (p->v > 2) { acc = acc + p->v; } else { acc = acc - 1; }
            p = p->next;
          }
          return acc;
        }
        int main() {
          Node *head = NULL;
          int i = 0;
          while (i < 5) {
            Node *n = new Node();
            n->v = i;
            n->next = head;
            head = n;
            i = i + 1;
          }
          print_int(sum(head, 5));
          return sum(head, 6);
        }|}
  in
  Util.check_bool "sweeps past the first statements" true (k > 20);
  match last with
  | `Runtime_error m ->
      Util.check_string "fails on the null dereference"
        "expected a class object" m
  | o -> Alcotest.failf "expected a runtime error, got %s" (show_outcome o)

let prop_step_sweep =
  Test.make
    ~name:"bytecode: every step budget ends alike in tree, typed and boxed"
    ~count:40
    (make ~print:render_cstmts gen_cstmts)
    (fun stmts -> Result.is_ok (step_sweep (render_cstmts stmts)))

let suite =
  [
    Util.test "benchmarks identical under both engines"
      t_benchmark_engine_differential;
    Util.test "missing member: identical structured error"
      t_missing_member_error_parity;
    Util.test "step limit trips at the same tick" t_step_limit_same_tick;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_nested_control_flow; prop_short_circuit; prop_step_sweep ]
