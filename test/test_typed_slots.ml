(* Differential tests for the typed (unboxed) slot representation (PR 8).

   The resolve pass classifies every local and field slot into an
   int/float/boxed bank and the bytecode compiler emits typed opcodes on
   an untagged operand stack for the unboxed banks. None of that may be
   observable: output, return value, step count, allocation count and
   the full profile snapshot must stay byte-identical to both the
   generic (all-boxed) bytecode engine and the tree-walking oracle.

   DEADMEM_BOXED=1 pins every slot to the boxed bank at resolve time,
   which is exactly the pre-PR generic engine — so one source program
   parsed three times gives the three-way differential. Each
   configuration parses its own copy because the resolve+compile cache
   is keyed on typed-program identity; sharing one parse would let the
   first compile's representation leak into the others.

   The qcheck property generates programs that mix the things the
   classifier has to keep apart: int and float locals, object pointers,
   int<->float casts, field traffic through both banks, and virtual
   calls (the receiver's dynamic class decides which override runs, and
   overrides disagree about how they touch the banks). The pinned cases
   cover the representation edges where an unboxing bug would hide:
   int wraparound at the word boundary (unboxed ints are native ints in
   every engine, so overflow must wrap identically) and float NaN/inf
   comparison semantics, which must follow the tree walker bit-for-bit
   even where it differs from IEEE conventions. *)

open QCheck

let allocs_counter = Telemetry.Counter.make "interp.allocations"

let run_counted ~engine prog =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let before = Telemetry.Counter.value allocs_counter in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let outcome = Runtime.Interp.run ~engine prog in
      (outcome, Telemetry.Counter.value allocs_counter - before))

(* Run [f] with the DEADMEM_BOXED resolve knob set to [boxed]; the
   previous value is restored so configurations cannot leak into each
   other (putenv cannot unset, but the knob only recognizes "1"/"true"
   as on). *)
let with_boxed ~boxed f =
  let prev = Option.value (Sys.getenv_opt "DEADMEM_BOXED") ~default:"0" in
  Unix.putenv "DEADMEM_BOXED" (if boxed then "1" else "0");
  Fun.protect ~finally:(fun () -> Unix.putenv "DEADMEM_BOXED" prev) f

(* Run [src] under one engine configuration. *)
let run_config ~engine ~boxed src =
  with_boxed ~boxed (fun () -> run_counted ~engine (Util.check_source src))

type observed = {
  o_ret : int;
  o_out : string;
  o_steps : int;
  o_allocs : int;
  o_objspace : int;
  o_numobj : int;
  o_hwm : int;
}

let observe ~engine ~boxed src =
  let (o : Runtime.Interp.outcome), allocs = run_config ~engine ~boxed src in
  {
    o_ret = o.return_value;
    o_out = o.output;
    o_steps = o.steps;
    o_allocs = allocs;
    o_objspace = o.snapshot.object_space;
    o_numobj = o.snapshot.num_objects;
    o_hwm = o.snapshot.high_water_mark;
  }

let three_way src =
  let tree = observe ~engine:Runtime.Interp.Tree ~boxed:false src in
  let generic = observe ~engine:Runtime.Interp.Bytecode ~boxed:true src in
  let typed = observe ~engine:Runtime.Interp.Bytecode ~boxed:false src in
  (tree, generic, typed)

let check_three name src =
  let tree, generic, typed = three_way src in
  let pair tag b =
    let chk what base now = Util.check_int (name ^ ": " ^ tag ^ " " ^ what) base now in
    chk "return" tree.o_ret b.o_ret;
    Util.check_string
      (name ^ ": " ^ tag ^ " output md5")
      (Digest.to_hex (Digest.string tree.o_out))
      (Digest.to_hex (Digest.string b.o_out));
    chk "steps" tree.o_steps b.o_steps;
    chk "allocations" tree.o_allocs b.o_allocs;
    chk "object_space" tree.o_objspace b.o_objspace;
    chk "num_objects" tree.o_numobj b.o_numobj;
    chk "high_water_mark" tree.o_hwm b.o_hwm
  in
  pair "generic" generic;
  pair "typed" typed

(* -- generator: mixed-bank programs with casts and virtual calls ---------------- *)

(* Straight-line op sequences over a fixed frame: NI int locals, NF
   float locals, and two receivers typed [Base*] whose dynamic classes
   differ (Base, Derived). Each op is rendered so its result flows back
   into the frame and eventually into the printed trace, so a slot
   landing in the wrong bank, a cast compiled against the wrong stack,
   or a virtual call resolving to the wrong override all diverge the
   output or the step count. Magnitudes stay bounded (float halving,
   small addends) so casts stay well-defined. *)
type op =
  | OIntArith of int * int * int  (* i[a] = i[a] * 31 + i[b] + k *)
  | OFltArith of int * int * int  (* d[a] = d[a] * 0.5 + d[b] + k *)
  | OCastFI of int * int  (* i[a] = (int)(d[b] * 4.0) *)
  | OCastIF of int * int * int  (* d[a] = (double)i[b] / k, k >= 1 *)
  | OFieldInt of bool * int  (* p->a = p->a + i[x]; i[x] = p->a - 1 *)
  | OFieldFlt of bool * int  (* p->w = p->w * 0.5 + d[x]; d[x] = p->w *)
  | OVCall of bool * int * int  (* i[x] = p->get(i[x] + k) *)
  | OPrintI of int
  | OPrintF of int
  | OLoop of int * int  (* bounded: for n rounds, i[a] = i[a] * 7 + round *)

let ni = 3

let nf = 2

let gen_ops =
  let open Gen in
  let ii = int_range 0 (ni - 1) and fi = int_range 0 (nf - 1) in
  let op =
    frequency
      [
        (3, map3 (fun a b k -> OIntArith (a, b, k)) ii ii (int_range 0 9));
        (3, map3 (fun a b k -> OFltArith (a, b, k)) fi fi (int_range 0 9));
        (2, map2 (fun a b -> OCastFI (a, b)) ii fi);
        (2, map3 (fun a b k -> OCastIF (a, b, k + 1)) fi ii (int_range 0 4));
        (2, map2 (fun d x -> OFieldInt (d, x)) bool ii);
        (2, map2 (fun d x -> OFieldFlt (d, x)) bool fi);
        (3, map3 (fun d x k -> OVCall (d, x, k)) bool ii (int_range 0 9));
        (2, map (fun x -> OPrintI x) ii);
        (2, map (fun x -> OPrintF x) fi);
        (1, map2 (fun a n -> OLoop (a, n + 1)) ii (int_range 0 3));
      ]
  in
  list_size (int_range 5 25) op

let render_ops ops =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    {|class Base {
public:
  int a;
  double w;
  Base() { a = 1; w = 1.0; }
  virtual int get(int k) { a = a + k; return a + (int)w; }
};
class Derived : public Base {
public:
  int b;
  Derived() { b = 7; }
  virtual int get(int k) { b = b + k * 2; w = w * 0.5 + 1.0; return b - a; }
};
int main() {
|};
  for i = 0 to ni - 1 do
    pr "  int i%d = %d;\n" i (i + 1)
  done;
  for i = 0 to nf - 1 do
    pr "  double d%d = %d.5;\n" i (i + 1)
  done;
  pr "  Base *p0 = new Base();\n";
  pr "  Base *p1 = new Derived();\n";
  let recv d = if d then "p1" else "p0" in
  let fresh = ref 0 in
  List.iter
    (fun op ->
      match op with
      | OIntArith (a, b, k) -> pr "  i%d = i%d * 31 + i%d + %d;\n" a a b k
      | OFltArith (a, b, k) -> pr "  d%d = d%d * 0.5 + d%d + %d.0;\n" a a b k
      | OCastFI (a, b) -> pr "  i%d = (int)(d%d * 4.0);\n" a b
      | OCastIF (a, b, k) -> pr "  d%d = (double)i%d / %d.0;\n" a b k
      | OFieldInt (d, x) ->
          pr "  %s->a = %s->a + i%d;\n" (recv d) (recv d) x;
          pr "  i%d = %s->a - 1;\n" x (recv d)
      | OFieldFlt (d, x) ->
          pr "  %s->w = %s->w * 0.5 + d%d;\n" (recv d) (recv d) x;
          pr "  d%d = %s->w;\n" x (recv d)
      | OVCall (d, x, k) -> pr "  i%d = %s->get(i%d + %d);\n" x (recv d) x k
      | OPrintI x -> pr "  print_int(i%d);\n" x
      | OPrintF x -> pr "  print_float(d%d);\n" x
      | OLoop (a, n) ->
          let v = !fresh in
          incr fresh;
          pr "  for (int t%d = 0; t%d < %d; t%d = t%d + 1) {\n" v v n v v;
          pr "    i%d = i%d * 7 + t%d;\n" a a v;
          pr "  }\n")
    ops;
  for i = 0 to ni - 1 do
    pr "  print_int(i%d);\n" i
  done;
  for i = 0 to nf - 1 do
    pr "  print_float(d%d);\n" i
  done;
  pr "  print_int(p0->get(1)); print_int(p1->get(1));\n";
  pr "  delete p0; delete p1;\n";
  pr "  return (i0 + i1 + i2) %% 200;\n}\n";
  Buffer.contents buf

let three_way_agree src =
  let tree, generic, typed = three_way src in
  tree = generic && tree = typed

let prop_mixed_banks =
  Test.make
    ~name:"typed slots: mixed int/float/object programs match tree + generic"
    ~count:100
    (make ~print:render_ops gen_ops)
    (fun ops -> three_way_agree (render_ops ops))

(* -- pinned representation edges ------------------------------------------------ *)

(* Int wraparound at the native word boundary. Unboxed int slots hold
   native ints exactly like the tree walker's tagged values, so
   max_int + 1 wraps to min_int in all three configurations. *)
let t_int_overflow_pin () =
  let src =
    {|int main() {
        int x = 4611686018427387903;
        int wrapped = x + 1;
        print_int(wrapped);
        print_int(wrapped < 0);
        int doubled = x * 2;
        print_int(doubled);
        return (wrapped < x);
      }|}
  in
  check_three "int overflow" src;
  let tree = observe ~engine:Runtime.Interp.Tree ~boxed:false src in
  (* the tree walker is the semantics oracle: native wraparound *)
  Util.check_string "wraps to min_int"
    (Printf.sprintf "%d%d%d" min_int 1 (-2))
    tree.o_out;
  Util.check_int "wrapped compares below x" 1 tree.o_ret

(* Float NaN/inf compares. Division by zero is a runtime error in this
   language, but inf (overflow) and NaN (inf - inf) are reachable; the
   typed float stack must reproduce the tree walker's comparison
   results bit-for-bit — including where its ordering of NaN differs
   from IEEE — plus IEEE-faithful (non-)equality of NaN with itself. *)
let t_float_nan_pin () =
  let src =
    {|int main() {
        double big = 1.0e308;
        double inf = big * 10.0;
        double n = inf - inf;
        double z = 1.0;
        print_int(n < z); print_int(n > z);
        print_int(n <= z); print_int(n >= z);
        print_int(n == n); print_int(n != n);
        print_int(inf > 1000000.0);
        print_float(n); print_float(inf);
        if (n == n) { print_int(111); } else { print_int(222); }
        return 0;
      }|}
  in
  check_three "float nan" src;
  let tree = observe ~engine:Runtime.Interp.Tree ~boxed:false src in
  (* pinned against the tree walker's observed semantics: NaN sorts
     below finite values in <, <= (structural ordering), while == / !=
     on NaN follow IEEE (never equal, always unequal) *)
  Util.check_string "nan compare trace" "1010011-naninf222" tree.o_out

(* The generic configuration really is all-boxed: with DEADMEM_BOXED=1
   the unboxed slot counters stay at zero and every classified slot
   lands in the boxed fallback bank. *)
let t_boxed_knob_forces_fallback () =
  let src =
    {|int main() {
        int i = 2;
        double d = 1.5;
        i = i * 3;
        d = d * 2.0;
        print_int(i); print_float(d);
        return i;
      }|}
  in
  let count name f =
    let was = Telemetry.enabled () in
    Telemetry.set_enabled true;
    let c = Telemetry.Counter.make name in
    let before = Telemetry.Counter.value c in
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was)
      (fun () ->
        f ();
        Telemetry.Counter.value c - before)
  in
  let unboxed_when_typed =
    count "runtime.slots.unboxed_int" (fun () ->
        ignore (run_config ~engine:Runtime.Interp.Bytecode ~boxed:false src))
  in
  Util.check_bool "typed config unboxes int slots" true (unboxed_when_typed > 0);
  let unboxed_when_boxed =
    count "runtime.slots.unboxed_int" (fun () ->
        ignore (run_config ~engine:Runtime.Interp.Bytecode ~boxed:true src))
  in
  Util.check_int "boxed config unboxes nothing" 0 unboxed_when_boxed;
  let fallback_when_boxed =
    count "runtime.slots.boxed_fallback" (fun () ->
        ignore (run_config ~engine:Runtime.Interp.Bytecode ~boxed:true src))
  in
  Util.check_bool "boxed config routes slots to the fallback bank" true
    (fallback_when_boxed > 0)

let suite =
  [
    Util.test "int overflow wraps identically in all three configs"
      t_int_overflow_pin;
    Util.test "float NaN/inf compares pinned against the tree walker"
      t_float_nan_pin;
    Util.test "DEADMEM_BOXED forces the generic all-boxed engine"
      t_boxed_knob_forces_fallback;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_mixed_banks ]
