(* Bytecode engine: a linear lowering of the resolved IR and the flat
   stack-machine VM that executes it.

   [compile] flattens every [Resolve.rfunc] body into one instruction
   array: an explicit operand stack replaces the OCaml call stack the
   tree-walker used per IR node, control flow becomes absolute jumps
   (patched in one pass, with compare-and-branch fusion for the common
   [a < b] loop conditions), and locals/globals/statics/fields are
   direct-indexed loads and stores. Calls still go through the interned
   function ids and per-name dispatch tables built by [Resolve];
   arguments are passed in place on the caller's operand stack, so the
   per-call [value array] allocation of the tree engine disappears.

   Observable semantics are preserved exactly — this is the whole
   contract, pinned by [test/test_bytecode.ml]'s golden differential:

   - tick (step-counting) points: one per statement entry, one per
     [call_function], one per constructor/destructor level, and the
     extra tick of the missing-constructor path;
   - [fresh_obj_id] sequencing, construction order (virtual bases at
     the most-derived level, direct bases, member subobjects, body) and
     reverse destruction order;
   - evaluation order, including lvalue-before-rhs in assignments and
     receiver-before-arguments in method calls;
   - error strings, the structured missing-member error, and the
     scope-exit destruction semantics of [Fun.protect] (a destructor
     failure during unwinding surfaces as [Fun.Finally_raised], exactly
     as the tree engine's [protect ~finally] did).

   The only intentional divergence: a [break]/[continue] outside any
   loop (never produced from well-formed sources, and never executed by
   any golden) raises a [Runtime_error] here, where the tree engine let
   the internal control exception escape. *)

open Frontend
open Sema
open Sema.Typed_ast
open Value
open Resolve

(* Every array access in this module is either compiler-generated (slot
   and jump indices validated during lowering) or guarded by an explicit
   bounds check that produces the interpreter's own error message, so
   the stdlib's implicit check never fires — shadow it away. This is
   worth ~10% on the dispatch loop. *)
module Array = struct
  include Stdlib.Array

  external get : 'a array -> int -> 'a = "%array_unsafe_get"
  external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
end

(* -- typed slots ---------------------------------------------------------------

   The resolve pass banks every local slot and object member by static
   type ([Resolve.bank]); the compiler mirrors that with a static
   *shape* for every expression: which operand stack its value lives
   on. [SBox] is the legacy tagged stack; [SInt]/[SFlt] are the
   untagged int/float stacks added by this pass. Typed opcodes are
   emitted only when every operand's shape is known at compile time;
   anything polymorphic falls back to the generic opcodes through the
   explicit box bridges, so semantics can never depend on a shape
   guess. *)

type shape = SBox | SInt | SFlt

(* The integer image of [Value.coerce] for stores into an integral
   bank: the rhs is already an int, so only the narrowing step
   remains. [CChar] is [land 255], [CBool] is [<> 0]. *)
type icoerce = CNone | CChar | CBool

let ic_of_ty (ty : Ast.type_expr) : icoerce =
  match ty with
  | Ast.TChar -> CChar
  | Ast.TBool -> CBool
  | _ -> CNone

let[@inline] apply_ic ic n =
  match ic with
  | CNone -> n
  | CChar -> n land 255
  | CBool -> if n <> 0 then 1 else 0

(* Compile-time image of the int rhs transform folded into
   [IThisXAssignI]: either a chain of three constant binops (the
   [IBinopConst3I] shape) or a unary operator. A separate payload type
   rather than more constructors, to stay under the variant-size
   limit. *)
type ixform =
  | XBc3 of Ast.binop * int * Ast.binop * int * Ast.binop * int
  | XUn of Ast.unop

(* One slot of a fused constructor field-init run ([IInitFieldsI]):
   initialize an int-bank member from a local ([FInitL]) or from a
   constant ([FInitC]). *)
type finit =
  | FInitL of slots_by_class * Member.t * icoerce * int
  | FInitC of slots_by_class * Member.t * icoerce * int

(* Index operand of a fused [this->arr[ix]->f = rhs] store
   ([IThisIdxFieldStoreI]): an unboxed int local, or an int member of
   an object held in a local. *)
type idxsrc =
  | IxLocal of int
  | IxLocField of int * slots_by_class * Member.t

(* Right-hand side of the same fused store: a constant, an unboxed int
   local, or another this-rooted indexed member read folded with a
   constant binop ([op]=Add,[k]=0 when the source had no binop). *)
type irhs =
  | RConst of int
  | RLocal of int
  | RThisIdxField of
      slots_by_class * Member.t * idxsrc * slots_by_class * Member.t
      * Ast.binop * int

(* Micro-ops of a fused int-RPN store ([IRpnStoreI]): the settled tail
   of a pure-int assignment statement, re-expressed as pushes and
   combines over the untagged int stack. Each variant replays exactly
   one step of the unfused opcodes' evaluation (same reads, same error
   order), so a fused statement is observably identical. *)
type irpn =
  | RpConst of int
  | RpLocal of int
  | RpLoadField of int * slots_by_class * Member.t
  | RpThisField of slots_by_class * Member.t
  | RpFieldIdxField of
      int * slots_by_class * Member.t * int * Ast.binop * int
      * slots_by_class * Member.t
  | RpFieldField of
      int * slots_by_class * Member.t * slots_by_class * Member.t
  | RpBinop of Ast.binop
  | RpBinopConst of Ast.binop * int

(* Destination of a fused int-RPN store: the member slot resolves fully
   before any rhs leaf is read, exactly as the unfused sequence did.
   [DLocField] is [ILoadLocFieldI], [DFieldIdx] the
   [ILoadFieldIndexI; ILocFieldI] pair, [DFieldLocField] the
   [ILoadField; ILocFieldI] pair. *)
type rdst =
  | DLocField of int * slots_by_class * Member.t
  | DFieldIdx of
      int * slots_by_class * Member.t * int * slots_by_class * Member.t
  | DFieldLocField of
      int * slots_by_class * Member.t * slots_by_class * Member.t

(* -- instruction set ----------------------------------------------------------

   Lvalue locations are encoded as pointer values on the one operand
   stack: [VPtr (PCell r)] for legacy cell references and
   [VPtr (PArr (h, i))] for a slot of a backing array. Reading/writing
   through them is exactly [Value.read_loc]/[write_loc]; [ILocToPtr]
   applies the [arr_id = -1] re-wrap of [Value.ptr_of_loc] when a
   location escapes as a user-visible pointer.

   Statement ticks are not instructions. Every slot of a body carries a
   pre-tick count ([b_ticks], parallel to [b_code]) that the dispatch
   loop adds before it runs the slot, so each tick fires exactly where
   the statement entry put it: before the statement's first
   instruction, on every path that reaches that instruction. [ITick]
   remains only as a slot with no effect of its own that carries ticks
   a jump label separated from their instruction (jumpers to the label
   must not run them). *)

type instr =
  (* pushes *)
  | IConst of value
  | ILoad of int          (* push frame slot *)
  | ILoadRef of int       (* reference local: push its referent's value *)
  | IGlobal of int
  | IStatic of int
  | IThis
  (* pure operators, in place on the stack *)
  | IPop
  | IUnary of Ast.unop
  | IBinop of Ast.binop   (* strict binops only; && / || compile to jumps *)
  | IToBool
  | ICastInt
  | ICastFloat
  | IField of slots_by_class * Member.t
  | IDeref
  | IIndex
  | IAsObj                (* coerce to an object before a member-ptr deref *)
  | IMemPtrDeref
  | IAddrOf
  (* lvalue locations *)
  | ILocLocal of int
  | ILocLocalRef of int
  | ILocGlobal of int
  | ILocStatic of int
  | ILocField of slots_by_class * Member.t
  | ILocDeref
  | ILocIndex
  | ILocMemPtr
  | ILocToPtr             (* location -> user-visible pointer (ptr_of_loc) *)
  | IObjToPtr             (* object-reference argument: VObj o -> VPtr (PObj o) *)
  (* stores *)
  | IAssign of Ast.type_expr
  | ICompound of Ast.assign_op * Ast.type_expr
  | IIncDec of Ast.incdec * Ast.fixity
  | IStoreLocal of int * Ast.type_expr      (* coerce, store, keep value *)
  | IStoreLocalPop of int * Ast.type_expr   (* coerce, store, drop value *)
  | IStoreRawPop of int                     (* store without coercion *)
  | IIncDecLocal of Ast.incdec * Ast.fixity * int
  | IIncDecLocalPop of Ast.incdec * int
  (* control *)
  | IJump of int
  | IJumpIfFalse of int
  | IJumpIfTrue of int
  | IJumpCmpFalse of Ast.binop * int  (* fused compare-and-branch *)
  | IAndFalse of int      (* &&: pop; falsy -> push 0 and jump *)
  | IOrTrue of int        (* ||: pop; truthy -> push 1 and jump *)
  | ITick                 (* no effect: carries label-separated ticks *)
  | IPushScope of int array
  | IPopScope
  | IExitScopes of int    (* break/continue leaving n destroy scopes *)
  | IReturn
  | IReturnUnit
  | IRaise of string
  (* allocation *)
  | INewObj of { n_cid : int; n_cls : string; n_ctor : int; n_argc : int }
  | INewScalar of int * Ast.type_expr       (* bytes, element type *)
  | INewArrObj of { w_cid : int; w_cls : string; w_ctor : int }
  | INewArrScalar of Ast.type_expr * int    (* element type, element bytes *)
  | IDelete
  (* declarations *)
  | IDeclScalar of int * Ast.type_expr
  | IDeclStackArr of {
      ds_slot : int;
      ds_cid : int;
      ds_cls : string;
      ds_ctor : int;
      ds_len : int;
    }
  | IDeclCtor of {
      dc_slot : int;
      dc_cid : int;
      dc_cls : string;
      dc_ctor : int;
      dc_argc : int;
    }
  (* calls: arguments stay in place on the operand stack; the callee
     reads them at [sp - argc .. sp - 1] *)
  | IBuiltin of builtin * int
  | ICallFunc of int * int
  | ICallMethod of { m_func : int; m_argc : int; m_arrow : bool }
  | ICallVirtual of { v_name : string; v_table : int array; v_argc : int }
  | ICallFunPtr of int
  | ICallCtor of int * int  (* base/vbase constructor on the current [this] *)
  (* constructor member-initializer steps *)
  | IInitField of {
      if_slots : slots_by_class;
      if_member : Member.t;
      if_cid : int;
      if_cls : string;
      if_ctor : int;
      if_argc : int;
    }
  | IInitFieldArr of {
      ia_slots : slots_by_class;
      ia_member : Member.t;
      ia_cid : int;
      ia_cls : string;
      ia_ctor : int;
      ia_len : int;
    }
  | IInitFieldScalar of {
      is_slots : slots_by_class;
      is_member : Member.t;
      is_coerce : Ast.type_expr;
    }
  (* superinstructions: adjacent pairs fused at emit time (see [fuse]).
     Each is exactly the sequence of its parts — same evaluation order,
     same errors — in one dispatch. The dynamic pair profile over the
     benchmark suite drove the selection: local.field reads,
     compare-and-branch against a constant or local, and the
     store/increment-then-back-edge of for loops together cover over
     half of all executed pairs. *)
  | ILoadField of int * slots_by_class * Member.t     (* ILoad; IField *)
  | IThisField of slots_by_class * Member.t           (* IThis; IField *)
  | IIndexField of slots_by_class * Member.t          (* IIndex; IField *)
  | ILoadLocField of int * slots_by_class * Member.t  (* ILoad; ILocField *)
  | ILoadIndex of int                                 (* ILoad; IIndex *)
  | IFieldBinop of slots_by_class * Member.t * Ast.binop
  | ILoadFieldBinop of int * slots_by_class * Member.t * Ast.binop
  | IBinopConst of Ast.binop * value                  (* IConst; IBinop *)
  | IAssignPop of Ast.type_expr                       (* IAssign; IPop *)
  | IStoreLocalPopJump of int * Ast.type_expr * int   (* store; back edge *)
  | IIncDecLocalJump of Ast.incdec * int * int        (* step; back edge *)
  (* branch variants *)
  | IJumpCmpConstFalse of Ast.binop * value * int
  | IJumpLocCmpConstFalse of int * Ast.binop * value * int
  | IJumpLocCmpFalse of Ast.binop * int * int     (* top CMP local *)
  | IJumpLoc2CmpFalse of Ast.binop * int * int * int  (* local CMP local *)
  (* the pointer-chase loop body [p = p->f;] in one or two dispatches *)
  | ILoadFieldStore of int * slots_by_class * Member.t * int * Ast.type_expr
  | ILoadFieldStoreJump of
      int * slots_by_class * Member.t * int * Ast.type_expr * int
  (* round 3: cascade fusion re-fuses a fusion product with its own
     predecessor, so whole expression chains ([o.f[i*k+j].g], the
     pointer-scan loop condition) collapse to one dispatch. *)
  | ILoadBinopConst of int * Ast.binop * value        (* ILoad; IBinopConst *)
  | ILoadFieldBC of int * slots_by_class * Member.t * Ast.binop * value
  | ILoadFieldLoadBC of
      int * slots_by_class * Member.t * int * Ast.binop * value
  | IFieldIdxField of
      int * slots_by_class * Member.t * int * Ast.binop * value
      * slots_by_class * Member.t                     (* l.f[l' op k].g *)
  | ILoadFieldBinop2 of
      int * slots_by_class * Member.t * Ast.binop * Ast.binop
  | IBinopAssignPop of Ast.binop * Ast.type_expr      (* IBinop; IAssignPop *)
  | ILoadLoadField of int * int * slots_by_class * Member.t
  | ILocFieldLoadField of
      slots_by_class * Member.t * int * slots_by_class * Member.t
  (* [local = v; <tick> push local'.f] — a store, the next statement's
     tick, and that statement's first read *)
  | IStoreTLoadField of int * Ast.type_expr * int * slots_by_class * Member.t
  | ILoadFieldIndex of int * slots_by_class * Member.t * int
  | ILoadFieldIndexStore of
      int * slots_by_class * Member.t * int * int * Ast.type_expr
  | ILoadFieldCmpLocFalse of
      int * slots_by_class * Member.t * Ast.binop * int * int
  | IBinopConstAndFalse of Ast.binop * value * int
  | ILoadFieldBinopJumpFalse of
      int * slots_by_class * Member.t * Ast.binop * int
  | IJumpBCCmpFalse of Ast.binop * value * Ast.binop * int
  (* a scan loop's hot cycle [guard-branch -> p = p->f -> back edge]
     with the step on the branch's false edge: [finish]'s branch-target
     peephole inlines the step (and its one statement tick) into the
     false arm; the step's own slot stays in place for the fall-in
     path *)
  | IScanStep of
      int * slots_by_class * Member.t * Ast.binop * int
      * int * slots_by_class * Member.t * int * Ast.type_expr * int
  (* [finish]'s second peephole: a guard [local CMP const] immediately
     followed by an [IScanStep] whose back edge is the guard itself is a
     whole self-contained scan loop; run it in a single dispatch. The
     body exit falls to [pc + 2]. *)
  | ILoopScan of
      int * Ast.binop * value * int
      * int * slots_by_class * Member.t * Ast.binop * int
      * int * slots_by_class * Member.t * int * Ast.type_expr
  | IBinopLoadField of Ast.binop * int * slots_by_class * Member.t
  | IBinop2 of Ast.binop * Ast.binop                  (* IBinop; IBinop *)
  | IThisFieldBinop of slots_by_class * Member.t * Ast.binop
  | IFieldBinop2AssignPop of
      int * slots_by_class * Member.t * Ast.binop * Ast.binop * Ast.type_expr
  | IBinop2AssignPop of Ast.binop * Ast.binop * Ast.type_expr
  | ILoadLocFieldLoadField of
      int * slots_by_class * Member.t * int * slots_by_class * Member.t
  | ILoadFieldBCAndFalse of
      int * slots_by_class * Member.t * Ast.binop * value * int
  | IJumpLocFCmpFalse of
      int * int * slots_by_class * Member.t * Ast.binop * int
  | IJumpLL2FBCCmpFalse of
      int * int * slots_by_class * Member.t * Ast.binop * value * Ast.binop
      * int
  (* -- typed (untagged) instructions -----------------------------------
     These run on the per-invocation int/float operand stacks instead of
     the boxed one: zero allocation and no tag dispatch on int/float hot
     paths. Each arm is the exact image of its generic counterpart —
     same evaluation order, coercions and error strings — with the tag
     test resolved at compile time by the resolve pass's bank
     classification. Suffix conventions: [..I]/[..F] name the stack an
     instruction's operands live on; [..IB]/[..FB]/[..B] are bridge
     forms whose rhs stays boxed (polymorphic) but whose destination is
     an unboxed bank slot. *)
  (* pushes / reads *)
  | IConstI of int
  | IConstF of float
  | ILoadI of int         (* push int local *)
  | ILoadF of int         (* push float local *)
  | IFieldI of slots_by_class * Member.t   (* pop obj; push int member *)
  | IFieldF of slots_by_class * Member.t
  | IIndexI               (* a[i] with an untagged index; result boxed *)
  (* bridges between the typed stacks and the boxed stack *)
  | IBoxI                 (* pop int stack; push boxed *)
  | IBoxF
  | IBoxIU                (* pop int stack; insert *under* the boxed top *)
  | IBoxFU
  | IPopI
  | IPopF
  | ILoadIB of int        (* ILoadI; IBoxI *)
  | ILoadFieldIB of int * slots_by_class * Member.t
  | ICastFI               (* float stack -> int stack (int_of_float) *)
  | ICastIF               (* int stack -> float stack (float_of_int) *)
  (* pure typed operators *)
  | IUnaryI of Ast.unop
  | INegF
  | INotF                 (* float !x: push int 0/1 *)
  | IToBoolI
  | IBinopII of Ast.binop (* int OP int -> int, incl. compares *)
  | IArithFF of Ast.binop (* float OP float -> float *)
  | ICmpFF of Ast.binop   (* float CMP float -> int 0/1 *)
  | IArithIF of Ast.binop (* int (under) OP float (top) -> float *)
  | IArithFI of Ast.binop (* float (under) OP int (top) -> float *)
  | ICmpIF of Ast.binop
  | ICmpFI of Ast.binop
  (* typed local stores *)
  | IStoreLocalI of icoerce * int           (* coerce, store, keep value *)
  | IStoreLocalPopI of icoerce * int
  | IStoreLocalF of int
  | IStoreLocalPopF of int
  | IStoreLocalIB of Ast.type_expr * int    (* boxed rhs -> int bank slot *)
  | IStoreLocalIBPop of Ast.type_expr * int
  | IStoreLocalFB of Ast.type_expr * int
  | IStoreLocalFBPop of Ast.type_expr * int
  | IIncDecLocalI of Ast.incdec * Ast.fixity * int
  | IIncDecLocalPopI of Ast.incdec * int
  | IIncDecLocalF of Ast.incdec * Ast.fixity * int
  | IIncDecLocalPopF of Ast.incdec * int
  | ICompoundLocalI of Ast.binop * icoerce * int
  | ICompoundLocalIPop of Ast.binop * icoerce * int
  | ICompoundLocalF of Ast.binop * int
  | ICompoundLocalFPop of Ast.binop * int
  | ICompoundLocalB of Ast.assign_op * Ast.type_expr * int * bank
  | ICompoundLocalBPop of Ast.assign_op * Ast.type_expr * int * bank
  (* unboxed member lvalues. [ILocFieldI]/[ILocFieldF] keep the object
     on the boxed stack and push the resolved bank index onto the int
     stack, so the member lookup (and its missing-member error) happens
     before the rhs is evaluated, exactly as the tree engine orders it. *)
  | ILocFieldI of slots_by_class * Member.t
  | ILocFieldF of slots_by_class * Member.t
  | IAssignFieldI of icoerce       (* pop rhs(int), slot, obj; keep value *)
  | IAssignFieldIPop of icoerce
  | IAssignFieldF
  | IAssignFieldFPop
  | IAssignFieldIB of Ast.type_expr    (* boxed rhs -> int bank member *)
  | IAssignFieldIBPop of Ast.type_expr
  | IAssignFieldFB of Ast.type_expr
  | IAssignFieldFBPop of Ast.type_expr
  | ICompoundFieldI of Ast.binop * icoerce
  | ICompoundFieldIPop of Ast.binop * icoerce
  | ICompoundFieldF of Ast.binop
  | ICompoundFieldFPop of Ast.binop
  | ICompoundFieldB of Ast.assign_op * Ast.type_expr * bank
  | ICompoundFieldBPop of Ast.assign_op * Ast.type_expr * bank
  | IIncDecFieldI of Ast.incdec * Ast.fixity
  | IIncDecFieldIPop of Ast.incdec
  | IIncDecFieldF of Ast.incdec * Ast.fixity
  | IIncDecFieldFPop of Ast.incdec
  (* typed declarations / ctor member initializers *)
  | IDeclScalarI of int
  | IDeclScalarF of int
  | IInitFieldScalarI of slots_by_class * Member.t * icoerce
  | IInitFieldScalarF of slots_by_class * Member.t
  | IInitFieldScalarB of slots_by_class * Member.t * Ast.type_expr * bank
  (* typed control *)
  | IJumpIfFalseI of int
  | IJumpIfTrueI of int
  | IJumpIfFalseF of int
  | IJumpIfTrueF of int
  | IAndFalseI of int
  | IOrTrueI of int
  | IJumpCmpFalseI of Ast.binop * int
  | IJumpCmpConstFalseI of Ast.binop * int * int
  | IJumpLocCmpConstFalseI of int * Ast.binop * int * int
  | IJumpLocCmpFalseI of Ast.binop * int * int
  | IJumpLoc2CmpFalseI of Ast.binop * int * int * int
  | IJumpLocFCmpFalseI of
      int * int * slots_by_class * Member.t * Ast.binop * int
  (* typed superinstructions, mirroring the generic fusion set *)
  | ILoadFieldI of int * slots_by_class * Member.t
  | IThisFieldI of slots_by_class * Member.t
  | IIndexFieldI of slots_by_class * Member.t
  | ILoadLoadFieldI of int * int * slots_by_class * Member.t
  | IBinopConstI of Ast.binop * int
  | ILoadBinopConstI of int * Ast.binop * int
  | ILoadFieldBCI of int * slots_by_class * Member.t * Ast.binop * int
  | ILoadFieldLoadBCI of
      int * slots_by_class * Member.t * int * Ast.binop * int
      (* boxed l.f; typed [l' op k] index *)
  | ILoadFieldBinopI of int * slots_by_class * Member.t * Ast.binop
  | IThisFieldBinopI of slots_by_class * Member.t * Ast.binop
  | IStoreLocalPopJumpI of icoerce * int * int
  | IIncDecLocalJumpI of Ast.incdec * int * int
  | IFieldIdxFieldI of
      int * slots_by_class * Member.t * int * Ast.binop * int
      * slots_by_class * Member.t
  | ILoadFieldCmpLocFalseI of
      int * slots_by_class * Member.t * Ast.binop * int * int
  | ILoadFieldBinopJumpFalseI of
      int * slots_by_class * Member.t * Ast.binop * int
  | IJumpBCCmpFalseI of Ast.binop * int * Ast.binop * int
  | IJumpLL2FBCCmpFalseI of
      int * int * slots_by_class * Member.t * Ast.binop * int * Ast.binop * int
  (* the scan loop with an int guard member: guard read is unboxed, the
     pointer step stays boxed (the step member is a reference bank) *)
  | IScanStepI of
      int * slots_by_class * Member.t * Ast.binop * int
      * int * slots_by_class * Member.t * int * Ast.type_expr * int
  | ILoopScanI of
      int * Ast.binop * int * int
      * int * slots_by_class * Member.t * Ast.binop * int
      * int * slots_by_class * Member.t * int * Ast.type_expr
  (* typed index/store chains and field-copy superinstructions: the
     typed images of fusion coverage the generic engine already had
     ([ILoadFieldIndex], [ILoadFieldIndexStore]), plus store-from-source
     forms that collapse whole assignment statements into one
     dispatch *)
  | ILoadIndexI of int
  | ILoadFieldIndexI of int * slots_by_class * Member.t * int
  | ILoadFieldIndexStoreI of
      int * slots_by_class * Member.t * int * int * Ast.type_expr
  | ILoadBinopI of Ast.binop * int
  | ILoadLoadFieldBinopI of
      int * int * slots_by_class * Member.t * Ast.binop
  | ILoadFieldBCAndFalseI of
      int * slots_by_class * Member.t * Ast.binop * int * int
  | ILoadLocFieldI of int * slots_by_class * Member.t
  | IAssignFieldLIPop of icoerce * int
  | IAssignFieldLFIPop of icoerce * int * slots_by_class * Member.t
  | IFieldStoreLI of icoerce * int * slots_by_class * Member.t * int
  | IFieldCopyII of
      icoerce * int * slots_by_class * Member.t * int * slots_by_class
      * Member.t
  (* this-rooted lvalues, constructor field initialization from a local
     or constant, folded constant-operator chains, and the
     [local CMP this.f] loop guard *)
  | IThisLocFieldI of slots_by_class * Member.t
  | IAssignFieldCIPop of icoerce * int
  | IInitFieldLI of slots_by_class * Member.t * icoerce * int
  | IInitFieldConstI of slots_by_class * Member.t * icoerce * int
  | IBinopConst2I of Ast.binop * int * Ast.binop * int
  | IBinopConst3I of
      Ast.binop * int * Ast.binop * int * Ast.binop * int
  | IJumpLocTFCmpFalseI of Ast.binop * int * slots_by_class * Member.t * int
  (* [if (local->f BINOP const)] in branch position: the whole guard in
     one dispatch *)
  | IJumpLocFieldBCFalseI of
      int * slots_by_class * Member.t * Ast.binop * int * int
  (* [if (this->f BINOP const)] *)
  | IJumpThisFieldBCFalseI of
      slots_by_class * Member.t * Ast.binop * int * int
  (* [this->dst = xform(this->src)] in one dispatch: dst slot resolves
     first, then the src read — the order the unfused sequence used *)
  | IThisXAssignI of
      slots_by_class * Member.t * slots_by_class * Member.t * ixform * icoerce
  (* [return this->f] on an int member *)
  | IReturnThisFieldI of slots_by_class * Member.t
  (* a run of consecutive int-member initializers in a constructor
     prologue, executed left to right exactly as the unfused ops *)
  | IInitFieldsI of finit array
  (* [this->arr[ix]->f = rhs] as one dispatch (the dependency-graph
     edge stores in hot loops). Destination resolves fully (array read,
     index, element, slot) before the rhs is evaluated — the unfused
     order *)
  | IThisIdxFieldStoreI of
      slots_by_class * Member.t * idxsrc * slots_by_class * Member.t
      * icoerce * irhs
  (* [local = localA->arr[i]; <tick> if (localN->f BINOP const)] — the
     statement-plus-guard prefix of the hot list-walk loops, one
     dispatch. First tuple is the [ILoadFieldIndexStoreI] payload,
     second the [IJumpLocFieldBCFalseI] test; the guard statement's one
     tick runs between the two *)
  | ITLFIndexIStoreJumpFBCI of
      (int * slots_by_class * Member.t * int * int * Ast.type_expr)
      * (int * slots_by_class * Member.t * Ast.binop * int)
      * int
  (* a whole pure-int assignment statement (destination resolution, an
     RPN chain of int reads/combines, the store) in one dispatch — the
     stencil-update statements dominating numeric kernels *)
  | IRpnStoreI of rdst * irpn array * icoerce
  (* [intlocal = (int)(BOXED binop const)] — the post-call coercion of
     a method result into an unboxed local, one dispatch *)
  | IBinopConstCastStoreI of Ast.binop * value * Ast.type_expr * int
  (* a run of adjacent [ILoadIB]s — arg pushes for calls/ctors *)
  | ILoadIBn of int array
  (* [this->m()] with no arguments, one dispatch *)
  | IThisCallM of int
  (* [intlocal = (int)(this->m() binop const)] *)
  | IThisCallMStoreI of int * Ast.binop * value * Ast.type_expr * int
  (* loop back edges with the guard replicated into the increment
     (branch-target inlining, built in [finish]): the payload tuple is
     the guard's own payload, the trailing int the guard's fall-through
     pc. The guard instruction stays in place for fall-in entries. *)
  | IIncDecJumpLocFCmpI of
      Ast.incdec * int
      * (int * int * slots_by_class * Member.t * Ast.binop * int)
      * int
  | IIncDecJumpLL2FBCI of
      Ast.incdec * int
      * (int * int * slots_by_class * Member.t * Ast.binop * int * Ast.binop
         * int)
      * int
  (* [objlocal2 = arr-field[intlocal]; <tick>
        objlocalA->fI = objlocalB->fI] — the two statements heading the
        field-solver's innermost loop, one dispatch; the second
        statement's one tick runs between the two *)
  | ITLFIStoreFieldCopyII of
      (int * slots_by_class * Member.t * int * int * Ast.type_expr)
      * (icoerce * int * slots_by_class * Member.t * int * slots_by_class
         * Member.t)
  (* [intlocal = this->arr[objlocal->idx]->field] — the dependency-chase
     statement *)
  | IThisFieldIdxFStoreI of
      slots_by_class * Member.t * int * slots_by_class * Member.t
      * slots_by_class * Member.t * icoerce * int

(* A compiled code body. [b_ticks.(pc)] is the number of statement
   ticks that fire before [b_code.(pc)] runs. [b_omax] bounds the
   operand stack the body can ever need (computed conservatively during
   emission); [b_scoped] says whether any destroy scope is opened, so
   scope-free bodies skip the unwinding machinery entirely. [b_id] is
   the body's index into [cp_bodies]/[cp_owners], assigned during
   [compile]; the profiler uses it to find the body's counter row. *)
type cbody = {
  b_code : instr array;
  b_ticks : int array;
  b_omax : int;
  b_imax : int;  (* untagged int operand-stack bound *)
  b_fmax : int;  (* untagged float operand-stack bound *)
  b_scoped : bool;
  mutable b_id : int;
}

type ckind =
  | KBody of cbody
  | KCtor of { kc_body : cbody; kc_entry : int }
      (* [kc_entry]: entry point skipping virtual-base construction, for
         non-most-derived invocations *)
  | KDtor
  | KUnknown
  | KUndefined
  | KMissingCtor

type cfunc = {
  c_id : Func_id.t;
  c_frame : fshape;
  c_params : rparam array;
  c_kind : ckind;
}

(* Per-class destruction plan with the destructor body compiled. *)
type cdestroy = {
  cd_dtor : (fshape * cbody) option;
  cd_fields : dfield array;
  cd_nv_bases : int array;
  cd_vbases_rev : int array;
}

type cprogram = {
  cp_rp : rprogram;
  cp_funcs : cfunc array;
  cp_destroy : cdestroy array;
  cp_ginit : cbody option array;  (* global initializers, by global index *)
  (* every compiled body, indexed by [b_id], with its owner: a display
     label plus the owning function's index when the body belongs to
     one (profiler call counts attach there) *)
  cp_bodies : cbody array;
  cp_owners : (string * int option) array;
}

(* -- telemetry (no-ops unless collection is enabled) -------------------------- *)

let instrs_counter = Telemetry.Counter.make "bytecode.instructions_compiled"
let bodies_counter = Telemetry.Counter.make "bytecode.bodies_compiled"

(* -- compiler ------------------------------------------------------------------ *)

(* Net operand-stack effect of one instruction; peaks within an
   instruction are covered by the +1 slack [emit] keeps and the fixed
   slack [finish] adds. Over-estimation is harmless (a few spare slots),
   under-estimation impossible: branch joins only ever *lower* the real
   depth below the linear scan's estimate. *)
let delta = function
  | IConst _ | ILoad _ | ILoadRef _ | IGlobal _ | IStatic _ | IThis
  | ILocLocal _ | ILocLocalRef _ | ILocGlobal _ | ILocStatic _
  | INewScalar _ | IIncDecLocal _ | IRaise _ ->
      1
  | IUnary _ | IToBool | ICastInt | ICastFloat | IField _ | IDeref | IAsObj
  | IAddrOf | ILocField _ | ILocDeref | ILocToPtr | IObjToPtr | IIncDec _
  | IStoreLocal _ | INewArrObj _ | INewArrScalar _ | IJump _ | ITick
  | IPushScope _ | IPopScope | IExitScopes _ | IReturnUnit | IDeclScalar _
  | IDeclStackArr _ | IIncDecLocalPop _ | IInitFieldArr _ ->
      0
  | IPop | IBinop _ | IIndex | IMemPtrDeref | ILocIndex | ILocMemPtr
  | IAssign _ | ICompound _ | IStoreLocalPop _ | IStoreRawPop _ | IDelete
  | IJumpIfFalse _ | IJumpIfTrue _ | IAndFalse _ | IOrTrue _ | IReturn
  | IInitFieldScalar _ ->
      -1
  | IJumpCmpFalse _ -> -2
  | ILoadField _ | IThisField _ | ILoadLocField _ -> 1
  | ILoadFieldBinop _ | IBinopConst _ | IIncDecLocalJump _
  | IJumpLocCmpConstFalse _ | ILoadIndex _ | IJumpLoc2CmpFalse _
  | ILoadFieldStore _ | ILoadFieldStoreJump _ ->
      0
  | IFieldBinop _ | IIndexField _ | IStoreLocalPopJump _
  | IJumpCmpConstFalse _ | IJumpLocCmpFalse _ ->
      -1
  | IAssignPop _ -> -2
  | ILoadBinopConst _ | ILoadFieldBC _
  | ILoadFieldIndex _ | ILocFieldLoadField _ | IFieldIdxField _ ->
      1
  | ILoadFieldLoadBC _ | ILoadLoadField _ -> 2
  | IStoreTLoadField _ | ILoadFieldIndexStore _ | ILoadFieldCmpLocFalse _ ->
      0
  | ILoadFieldBinop2 _ | ILoadFieldBinopJumpFalse _ | IBinopConstAndFalse _ ->
      -1
  | IJumpBCCmpFalse _ -> -2
  | IScanStep _ | ILoopScan _
  | IBinopLoadField _ | IThisFieldBinop _
  | ILoadFieldBCAndFalse _ | IJumpLocFCmpFalse _ | IJumpLL2FBCCmpFalse _ ->
      0
  | ILoadLocFieldLoadField _ -> 2
  | IBinop2 _ -> -2
  | IFieldBinop2AssignPop _ -> -3
  | IBinop2AssignPop _ -> -4
  | IBinopAssignPop _ -> -3
  | IBuiltin (_, n) | ICallFunc (_, n) | INewObj { n_argc = n; _ } -> 1 - n
  | ICallMethod { m_argc = n; _ } -> -n  (* receiver consumed, result pushed *)
  | ILoadIBn a -> Array.length a
  | IThisCallM _ -> 1
  | ICallVirtual { v_argc = n; _ } -> -n
  | ICallFunPtr n -> -n
  | ICallCtor (_, n) -> -n
  | IInitField { if_argc = n; _ } -> -n
  | IDeclCtor { dc_argc = n; _ } -> -n
  (* typed instructions: boxed-stack effect only (their int/float stack
     effects live in [idelta]/[fdelta]) *)
  | IBoxI | IBoxF | IBoxIU | IBoxFU | ILoadIB _ | ILoadFieldIB _
  | ILoadFieldLoadBCI _ | ILoadFieldIndexI _
  | ILoadLocFieldI _ | IThisLocFieldI _ ->
      1
  | IFieldI _ | IFieldF _ | IIndexFieldI _ | IAssignFieldI _
  | IAssignFieldIPop _ | IAssignFieldF | IAssignFieldFPop | IAssignFieldIB _
  | IAssignFieldFB _ | ICompoundFieldI _ | ICompoundFieldIPop _
  | ICompoundFieldF _ | ICompoundFieldFPop _ | ICompoundFieldB _
  | IIncDecFieldI _ | IIncDecFieldIPop _ | IIncDecFieldF _
  | IIncDecFieldFPop _ | IInitFieldScalarB _ | IStoreLocalIBPop _
  | IStoreLocalFBPop _ | ICompoundLocalBPop _ | IAssignFieldLIPop _
  | IAssignFieldLFIPop _ | IAssignFieldCIPop _ | IBinopConstCastStoreI _ ->
      -1
  | IAssignFieldIBPop _ | IAssignFieldFBPop _ | ICompoundFieldBPop _ -> -2
  | IConstI _ | IConstF _ | ILoadI _ | ILoadF _ | IIndexI | IPopI | IPopF
  | ICastFI | ICastIF | IUnaryI _ | INegF | INotF | IToBoolI | IBinopII _
  | IArithFF _ | ICmpFF _ | IArithIF _ | IArithFI _ | ICmpIF _ | ICmpFI _
  | IStoreLocalI _ | IStoreLocalPopI _ | IStoreLocalF _ | IStoreLocalPopF _
  | IStoreLocalIB _ | IStoreLocalFB _ | IIncDecLocalI _ | IIncDecLocalPopI _
  | IIncDecLocalF _ | IIncDecLocalPopF _ | ICompoundLocalI _
  | ICompoundLocalIPop _ | ICompoundLocalF _ | ICompoundLocalFPop _
  | ICompoundLocalB _ | ILocFieldI _ | ILocFieldF _ | IDeclScalarI _
  | IDeclScalarF _ | IInitFieldScalarI _ | IInitFieldScalarF _
  | IJumpIfFalseI _ | IJumpIfTrueI _ | IJumpIfFalseF _
  | IJumpIfTrueF _ | IAndFalseI _ | IOrTrueI _
  | IJumpCmpFalseI _ | IJumpCmpConstFalseI _
  | IJumpLocCmpConstFalseI _
  | IJumpLocCmpFalseI _
  | IJumpLoc2CmpFalseI _ | IJumpLocFCmpFalseI _
  | ILoadFieldI _ | IThisFieldI _
  | ILoadLoadFieldI _ | IBinopConstI _ | ILoadBinopConstI _ | ILoadFieldBCI _
  | ILoadFieldBinopI _ | IThisFieldBinopI _
  | ILoadFieldBCAndFalseI _ | IStoreLocalPopJumpI _
  | IIncDecLocalJumpI _ | IFieldIdxFieldI _ | ILoadFieldCmpLocFalseI _
  | ILoadFieldBinopJumpFalseI _
  | IJumpBCCmpFalseI _
  | IJumpLL2FBCCmpFalseI _ | IScanStepI _
  | ILoopScanI _ | ILoadIndexI _ | ILoadFieldIndexStoreI _ | ILoadBinopI _
  | ILoadLoadFieldBinopI _ | IFieldStoreLI _
  | IFieldCopyII _
  | IInitFieldLI _ | IInitFieldConstI _ | IBinopConst2I _ | IBinopConst3I _
  | IJumpLocTFCmpFalseI _
  | IJumpLocFieldBCFalseI _ | IJumpThisFieldBCFalseI _ | IThisXAssignI _
  | IReturnThisFieldI _ | IInitFieldsI _ | IThisIdxFieldStoreI _
  | ITLFIndexIStoreJumpFBCI _ | IRpnStoreI _ | IThisFieldIdxFStoreI _
  | ITLFIStoreFieldCopyII _ | IThisCallMStoreI _ | IIncDecJumpLocFCmpI _
  | IIncDecJumpLL2FBCI _ ->
      0

(* Net effect on the untagged int operand stack. Only typed instructions
   touch it, so the wildcard covers the whole generic set. *)
let idelta = function
  | IConstI _ | ILoadI _ | IFieldI _ | ILoadFieldI _ | IThisFieldI _
  | ILoadBinopConstI _ | ILoadFieldBCI _ | ILoadFieldLoadBCI _
  | IIncDecLocalI _ | ICastFI | ILocFieldI _ | ILocFieldF _ | INotF
  | ICmpFF _ | IFieldIdxFieldI _ | ILoadLocFieldI _ | ILoadLoadFieldBinopI _
  | IThisLocFieldI _ ->
      1
  | ILoadLoadFieldI _ -> 2
  | IBoxI | IBoxIU | IPopI | IBinopII _ | IStoreLocalPopI _
  | IStoreLocalPopJumpI _ | ICompoundLocalIPop _
  | IJumpIfFalseI _ | IJumpIfTrueI _ | IAndFalseI _
  | IOrTrueI _ | IJumpCmpConstFalseI _
  | IJumpLocCmpFalseI _ | IAssignFieldI _
  | IAssignFieldF | IAssignFieldIB _ | IAssignFieldIBPop _ | IAssignFieldFB _
  | IAssignFieldFBPop _ | ICompoundFieldI _ | ICompoundFieldF _
  | ICompoundFieldFPop _ | ICompoundFieldB _ | ICompoundFieldBPop _
  | IIncDecFieldIPop _ | IIncDecFieldF _ | IIncDecFieldFPop _
  | IInitFieldScalarI _ | ICastIF | IArithIF _ | IArithFI _
  | ILoadFieldBinopJumpFalseI _
  | IAssignFieldFPop | IIndexI
  | IAssignFieldLIPop _ | IAssignFieldLFIPop _ | IAssignFieldCIPop _ ->
      -1
  | IJumpCmpFalseI _ | IAssignFieldIPop _
  | ICompoundFieldIPop _ | IJumpBCCmpFalseI _ ->
      -2
  | _ -> 0

(* Net effect on the untagged float operand stack. *)
let fdelta = function
  | IConstF _ | ILoadF _ | IFieldF _
  | ICastIF | IIncDecLocalF _ | IIncDecFieldF _ ->
      1
  | IArithFF _ | ICmpIF _ | ICmpFI _ | INotF | IBoxF | IBoxFU | IPopF
  | IStoreLocalPopF _ | ICompoundLocalFPop _ | IAssignFieldFPop
  | IJumpIfFalseF _ | IJumpIfTrueF _
  | IInitFieldScalarF _ | ICastFI | ICompoundFieldFPop _ ->
      -1
  | ICmpFF _ -> -2
  | _ -> 0

type buf = {
  mutable code : instr array;
  mutable ticks : int array;  (* pre-tick per slot, parallel to [code] *)
  mutable pending : int;
      (* statement ticks emitted since the last instruction; the next
         emitted instruction carries them as its pre-tick *)
  mutable len : int;
  mutable od : int;    (* linear-scan operand depth *)
  mutable omax : int;
  mutable iod : int;   (* untagged int stack depth *)
  mutable iomax : int;
  mutable fod : int;   (* untagged float stack depth *)
  mutable fomax : int;
  mutable sdepth : int;  (* open destroy scopes at the frontier *)
  mutable scoped : bool;
  mutable lastlab : int;
      (* highest position that is a jump target; labels are only created
         at the frontier, so this is monotone. Fusing [prev; i] into one
         instruction in [prev]'s slot is legal unless a label sits
         *between* the two ([lastlab = len]): a jumper landing there
         expects [i] without [prev]'s effect. A label on [prev] itself
         is fine — jumpers wanted [prev] then [i] anyway. *)
}

let mk_buf () =
  {
    code = Array.make 32 IReturnUnit;
    ticks = Array.make 32 0;
    pending = 0;
    len = 0;
    od = 0;
    omax = 0;
    iod = 0;
    iomax = 0;
    fod = 0;
    fomax = 0;
    sdepth = 0;
    scoped = false;
    lastlab = -1;
  }

(* Track all three stack depths for one appended/fused instruction. The
   typed maxima track reached depth only (no +1 floor): a body that
   never touches a typed stack keeps a 0 bound and the VM skips that
   stack's allocation entirely. *)
let bump (b : buf) (i : instr) =
  b.od <- b.od + delta i;
  if b.od + 1 > b.omax then b.omax <- b.od + 1;
  b.iod <- b.iod + idelta i;
  if b.iod > b.iomax then b.iomax <- b.iod;
  b.fod <- b.fod + fdelta i;
  if b.fod > b.fomax then b.fomax <- b.fod

let is_cmp = function
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> true
  | _ -> false

(* Operators whose [ibinop_i] image is symmetric in its arguments, so a
   pushed constant may be folded as the *right* operand of a fused
   field-op form. Division, subtraction, shifts and orderings are
   excluded; [Eq]/[Ne] on ints are plain equality. *)
let commutes = function
  | Ast.Add | Ast.Mul | Ast.Eq | Ast.Ne | Ast.BAnd | Ast.BOr | Ast.BXor ->
      true
  | _ -> false

(* The pair-fusion table: [fuse prev i] is the single instruction
   equivalent to [prev; i], or [None]. Every fusion preserves the exact
   sequence semantics (evaluation order, ticks, errors) by
   construction — the VM arm of each fused form is the concatenation of
   its parts' arms, and the fused slot keeps [prev]'s pre-tick ([emit]
   never offers an [i] that carries one). The selection comes from the
   dynamic pair profile over the benchmark suite: local.field reads,
   binops against a constant, and the store/increment plus back-edge of
   for loops cover over half of all executed pairs. *)
let fuse (prev : instr) (i : instr) : instr option =
  match (prev, i) with
  | ILoad n, IField (s, m) -> Some (ILoadField (n, s, m))
  | IThis, IField (s, m) -> Some (IThisField (s, m))
  | IIndex, IField (s, m) -> Some (IIndexField (s, m))
  | ILoad n, ILocField (s, m) -> Some (ILoadLocField (n, s, m))
  | ILoadField (i, s, m), IStoreLocalPop (j, ty) ->
      Some (ILoadFieldStore (i, s, m, j, ty))
  | ILoadFieldStore (i, s, m, j, ty), IJump t ->
      Some (ILoadFieldStoreJump (i, s, m, j, ty, t))
  | ILoadFieldIndex (a, s, m, i), IStoreLocalPop (x, ty) ->
      Some (ILoadFieldIndexStore (a, s, m, i, x, ty))
  | ILoadFieldIndexI (a, s, m, i), IStoreLocalPop (x, ty) ->
      Some (ILoadFieldIndexStoreI (a, s, m, i, x, ty))
  | IConst v, IBinop op -> Some (IBinopConst (op, v))
  | ILoadField (n, s, m), IBinop op -> Some (ILoadFieldBinop (n, s, m, op))
  | IField (s, m), IBinop op -> Some (IFieldBinop (s, m, op))
  | IAssign ty, IPop -> Some (IAssignPop ty)
  | IStoreLocalPop (n, ty), IJump t -> Some (IStoreLocalPopJump (n, ty, t))
  | IIncDecLocalPop (w, n), IJump t -> Some (IIncDecLocalJump (w, n, t))
  | IIncDecLocal (w, _, n), IPop -> Some (IIncDecLocalPop (w, n))
  | IStoreLocal (n, ty), IPop -> Some (IStoreLocalPop (n, ty))
  | ILoad n, IIndex -> Some (ILoadIndex n)
  | ILoadFieldBinop (n, s, m, op1), IBinop op2 ->
      Some (ILoadFieldBinop2 (n, s, m, op1, op2))
  | ILoadField (n, s, m), IJumpLocCmpFalse (op, y, t) ->
      Some (ILoadFieldCmpLocFalse (n, s, m, op, y, t))
  | IBinopConst (op, v), IAndFalse t -> Some (IBinopConstAndFalse (op, v, t))
  | ILoadFieldBinop (n, s, m, op), IJumpIfFalse t ->
      Some (ILoadFieldBinopJumpFalse (n, s, m, op, t))
  | IThisField (s, m), IBinop op -> Some (IThisFieldBinop (s, m, op))
  | IBinop op1, IBinop op2 -> Some (IBinop2 (op1, op2))
  | ILoadFieldBC (n, s, m, op, v), IAndFalse t ->
      Some (ILoadFieldBCAndFalse (n, s, m, op, v, t))
  (* -- typed mirrors ---------------------------------------------------- *)
  | IConstI n, IBoxI -> Some (IConst (vint n))
  | IConstF f, IBoxF -> Some (IConst (VFloat f))
  | ILoadI n, IBoxI -> Some (ILoadIB n)
  | ILoadFieldI (n, s, m), IBoxI -> Some (ILoadFieldIB (n, s, m))
  | IConstI n, ICastIF -> Some (IConstF (float_of_int n))
  | IConstF f, ICastFI -> Some (IConstI (int_of_float f))
  | ILoad n, IFieldI (s, m) -> Some (ILoadFieldI (n, s, m))
  | IThis, IFieldI (s, m) -> Some (IThisFieldI (s, m))
  | IIndexI, IFieldI (s, m) -> Some (IIndexFieldI (s, m))
  | IConstI k, IBinopII op -> Some (IBinopConstI (op, k))
  | ILoadFieldI (n, s, m), IBinopII op -> Some (ILoadFieldBinopI (n, s, m, op))
  | IThisFieldI (s, m), IBinopII op -> Some (IThisFieldBinopI (s, m, op))
  | IStoreLocalI (ic, n), IPopI -> Some (IStoreLocalPopI (ic, n))
  | IStoreLocalF n, IPopF -> Some (IStoreLocalPopF n)
  | IStoreLocalIB (ty, n), IPop -> Some (IStoreLocalIBPop (ty, n))
  | IStoreLocalFB (ty, n), IPop -> Some (IStoreLocalFBPop (ty, n))
  | IIncDecLocalI (w, _, n), IPopI -> Some (IIncDecLocalPopI (w, n))
  | IIncDecLocalF (w, _, n), IPopF -> Some (IIncDecLocalPopF (w, n))
  | ICompoundLocalI (op, ic, n), IPopI -> Some (ICompoundLocalIPop (op, ic, n))
  | ICompoundLocalF (op, n), IPopF -> Some (ICompoundLocalFPop (op, n))
  | ICompoundLocalB (op, ty, n, bk), IPop ->
      Some (ICompoundLocalBPop (op, ty, n, bk))
  | IAssignFieldI ic, IPopI -> Some (IAssignFieldIPop ic)
  | IAssignFieldF, IPopF -> Some IAssignFieldFPop
  | IAssignFieldIB ty, IPop -> Some (IAssignFieldIBPop ty)
  | IAssignFieldFB ty, IPop -> Some (IAssignFieldFBPop ty)
  | ICompoundFieldI (op, ic), IPopI -> Some (ICompoundFieldIPop (op, ic))
  | ICompoundFieldF op, IPopF -> Some (ICompoundFieldFPop op)
  | ICompoundFieldB (op, ty, bk), IPop -> Some (ICompoundFieldBPop (op, ty, bk))
  | IIncDecFieldI (w, _), IPopI -> Some (IIncDecFieldIPop w)
  | IIncDecFieldF (w, _), IPopF -> Some (IIncDecFieldFPop w)
  | IStoreLocalPopI (ic, n), IJump t -> Some (IStoreLocalPopJumpI (ic, n, t))
  | IIncDecLocalPopI (w, n), IJump t -> Some (IIncDecLocalJumpI (w, n, t))
  | ILoadFieldBCI (n, s, m, op, k), IJumpIfFalseI t ->
      Some (IJumpLocFieldBCFalseI (n, s, m, op, k, t))
  | ILoadFieldI (n, s, m), IJumpLocCmpFalseI (op, y, t) ->
      Some (ILoadFieldCmpLocFalseI (n, s, m, op, y, t))
  | ILoadFieldBinopI (n, s, m, op), IJumpIfFalseI t ->
      Some (ILoadFieldBinopJumpFalseI (n, s, m, op, t))
  | ILoadFieldBCI (n, s, m, op, k), IAndFalseI t ->
      Some (ILoadFieldBCAndFalseI (n, s, m, op, k, t))
  | ILoadI i, IIndexI -> Some (ILoadIndexI i)
  | ILoadI i, IBinopII op -> Some (ILoadBinopI (op, i))
  | ILoadLoadFieldI (x, y, s, m), IBinopII op ->
      Some (ILoadLoadFieldBinopI (x, y, s, m, op))
  | ILoad n, ILocFieldI (s, m) -> Some (ILoadLocFieldI (n, s, m))
  | IThis, ILocFieldI (s, m) -> Some (IThisLocFieldI (s, m))
  | IThis, ICallMethod { m_func; m_argc = 0; m_arrow = _ } ->
      Some (IThisCallM m_func)
  | IThisCallM f, IBinopConstCastStoreI (op, v, ty, i) ->
      Some (IThisCallMStoreI (f, op, v, ty, i))
  (* assignment/initialization whose rhs is a local or a constant *)
  | ILoadI i, IAssignFieldIPop ic -> Some (IAssignFieldLIPop (ic, i))
  | ILoadFieldI (j, s, m), IAssignFieldIPop ic ->
      Some (IAssignFieldLFIPop (ic, j, s, m))
  | IConstI k, IAssignFieldIPop ic -> Some (IAssignFieldCIPop (ic, k))
  | ILoadI i, IInitFieldScalarI (s, m, ic) -> Some (IInitFieldLI (s, m, ic, i))
  | IConstI k, IInitFieldScalarI (s, m, ic) ->
      Some (IInitFieldConstI (s, m, ic, k))
  (* unary operators on an int literal fold at compile time; the images
     below are exactly the [IUnaryI] arm's *)
  | IConstI k, IUnaryI op ->
      Some
        (IConstI
           (match op with
           | Ast.Neg -> -k
           | Ast.Not -> if k = 0 then 1 else 0
           | Ast.BitNot -> lnot k
           | Ast.UPlus -> k))
  (* a comparison already leaves exactly 0/1 on the int stack, so the
     [&&]/[||] rhs normalization to bool is the identity on it *)
  | IBinopII op, IToBoolI when is_cmp op -> Some (IBinopII op)
  | IBinopConstI (op, k), IToBoolI when is_cmp op -> Some (IBinopConstI (op, k))
  | ILoadBinopConstI (n, op, k), IToBoolI when is_cmp op ->
      Some (ILoadBinopConstI (n, op, k))
  | ILoadFieldBCI (n, s, m, op, k), IToBoolI when is_cmp op ->
      Some (ILoadFieldBCI (n, s, m, op, k))
  | ILoadBinopI (op, i), IToBoolI when is_cmp op -> Some (ILoadBinopI (op, i))
  | ILoadFieldBinopI (n, s, m, op), IToBoolI when is_cmp op ->
      Some (ILoadFieldBinopI (n, s, m, op))
  | ILoadLoadFieldBinopI (x, y, s, m, op), IToBoolI when is_cmp op ->
      Some (ILoadLoadFieldBinopI (x, y, s, m, op))
  | (IBinopConst2I (_, _, op, _) as p), IToBoolI when is_cmp op -> Some p
  | (IBinopConst3I (_, _, _, _, op, _) as p), IToBoolI when is_cmp op -> Some p
  | ((ICmpFF _ | ICmpIF _ | ICmpFI _ | INotF | IToBoolI) as p), IToBoolI ->
      Some p
  | IUnaryI Ast.Not, IToBoolI -> Some (IUnaryI Ast.Not)
  | _ -> None

(* The cascade table: after [fuse] lands a combined instruction, try
   fusing it with *its* predecessor. Only forms whose vacated slot holds
   no recorded patch site may appear here (a branch on the right is the
   one being emitted, whose site [emit_patch] reads after the cascade
   settles), so the recorded patch positions stay valid when the
   frontier shrinks. Like [fuse], it joins only a tickless [f]. *)
let fuse2 (prev : instr) (f : instr) : instr option =
  match (prev, f) with
  | ILoad n, IBinopConst (op, v) -> Some (ILoadBinopConst (n, op, v))
  | ILoadField (n, s, m), IBinopConst (op, v) ->
      Some (ILoadFieldBC (n, s, m, op, v))
  | ILoadField (n, s, m), ILoadBinopConst (j, op, v) ->
      Some (ILoadFieldLoadBC (n, s, m, j, op, v))
  | ILoadFieldLoadBC (n, s, m, j, op, v), IIndexField (s2, m2) ->
      Some (IFieldIdxField (n, s, m, j, op, v, s2, m2))
  | IBinop op, IAssignPop ty -> Some (IBinopAssignPop (op, ty))
  | ILoadIB a, ILoadIB c -> Some (ILoadIBn [| a; c |])
  | ILoadIBn a, ILoadIB c -> Some (ILoadIBn (Array.append a [| c |]))
  | ILoad i, ILoadField (j, s, m) -> Some (ILoadLoadField (i, j, s, m))
  | ILocField (s1, m1), ILoadField (j, s2, m2) ->
      Some (ILocFieldLoadField (s1, m1, j, s2, m2))
  | ILoadField (a, s, m), ILoadIndex i -> Some (ILoadFieldIndex (a, s, m, i))
  | IBinop op, ILoadField (j, s, m) -> Some (IBinopLoadField (op, j, s, m))
  | ILoadFieldBinop2 (n, s, m, op1, op2), IAssignPop ty ->
      Some (IFieldBinop2AssignPop (n, s, m, op1, op2, ty))
  | IBinop2 (op1, op2), IAssignPop ty -> Some (IBinop2AssignPop (op1, op2, ty))
  | ILoadLocField (n, s, m), ILoadField (j, s2, m2) ->
      Some (ILoadLocFieldLoadField (n, s, m, j, s2, m2))
  (* -- typed mirrors ---------------------------------------------------- *)
  | ILoadI n, IBinopConstI (op, k) -> Some (ILoadBinopConstI (n, op, k))
  | ILoadFieldI (n, s, m), IBinopConstI (op, k) ->
      Some (ILoadFieldBCI (n, s, m, op, k))
  | ILoadField (n, s, m), ILoadBinopConstI (j, op, k) ->
      Some (ILoadFieldLoadBCI (n, s, m, j, op, k))
  | ILoadFieldLoadBCI (n, s, m, j, op, k), IIndexFieldI (s2, m2) ->
      Some (IFieldIdxFieldI (n, s, m, j, op, k, s2, m2))
  | ILoadI i, ILoadFieldI (j, s, m) -> Some (ILoadLoadFieldI (i, j, s, m))
  | ILoadField (a, s, m), ILoadIndexI i -> Some (ILoadFieldIndexI (a, s, m, i))
  | IConstI k, ILoadFieldBinopI (j, s, m, op) when commutes op ->
      Some (ILoadFieldBCI (j, s, m, op, k))
  | ILoadI i, IAssignFieldIPop ic -> Some (IAssignFieldLIPop (ic, i))
  | ILoadFieldI (j, s, m), IAssignFieldIPop ic ->
      Some (IAssignFieldLFIPop (ic, j, s, m))
  | ILoadLocFieldI (n, s, m), IAssignFieldLIPop (ic, i) ->
      Some (IFieldStoreLI (ic, n, s, m, i))
  | ILoadLocFieldI (a, s1, m1), IAssignFieldLFIPop (ic, j, s2, m2) ->
      Some (IFieldCopyII (ic, a, s1, m1, j, s2, m2))
  | IBinopConstI (o1, k1), IBinopConstI (o2, k2) ->
      Some (IBinopConst2I (o1, k1, o2, k2))
  | IBinopConst2I (o1, k1, o2, k2), IBinopConstI (o3, k3) ->
      Some (IBinopConst3I (o1, k1, o2, k2, o3, k3))
  (* constructor-prologue init runs: [IInitFieldLI]/[IInitFieldConstI]
     only ever appear via fusion, so the chain rules live here (the
     [settle] cascade) rather than in the pairwise table *)
  | IInitFieldLI (s1, m1, c1, i1), IInitFieldLI (s2, m2, c2, i2) ->
      Some (IInitFieldsI [| FInitL (s1, m1, c1, i1); FInitL (s2, m2, c2, i2) |])
  | IInitFieldLI (s1, m1, c1, i1), IInitFieldConstI (s2, m2, c2, k2) ->
      Some (IInitFieldsI [| FInitL (s1, m1, c1, i1); FInitC (s2, m2, c2, k2) |])
  | IInitFieldConstI (s1, m1, c1, k1), IInitFieldLI (s2, m2, c2, i2) ->
      Some (IInitFieldsI [| FInitC (s1, m1, c1, k1); FInitL (s2, m2, c2, i2) |])
  | IInitFieldConstI (s1, m1, c1, k1), IInitFieldConstI (s2, m2, c2, k2) ->
      Some (IInitFieldsI [| FInitC (s1, m1, c1, k1); FInitC (s2, m2, c2, k2) |])
  | IInitFieldsI a, IInitFieldLI (s, m, c, i) ->
      Some (IInitFieldsI (Array.append a [| FInitL (s, m, c, i) |]))
  | IInitFieldsI a, IInitFieldConstI (s, m, c, k) ->
      Some (IInitFieldsI (Array.append a [| FInitC (s, m, c, k) |]))
  | _ -> None

(* The cross-statement cascade: [prev] ends one statement and [f] opens
   the next, with exactly that statement's one tick between them, which
   the product runs as part of its own arm. *)
let fuse_across (prev : instr) (f : instr) : instr option =
  match (prev, f) with
  | IStoreLocalPop (i, ty), ILoadField (j, s, m) ->
      Some (IStoreTLoadField (i, ty, j, s, m))
  | ( ILoadFieldIndexStoreI (a, s, m, i, x, ty),
      IFieldCopyII (ic, a2, s1, m1, j, s2, m2) ) ->
      Some
        (ITLFIStoreFieldCopyII
           ((a, s, m, i, x, ty), (ic, a2, s1, m1, j, s2, m2)))
  | ( ILoadFieldIndexStoreI (a, s0, m0, i0, x0, ty0),
      IJumpLocFieldBCFalseI (n, s, m, op, k, t) ) ->
      Some
        (ITLFIndexIStoreJumpFBCI
           ((a, s0, m0, i0, x0, ty0), (n, s, m, op, k), t))
  | _ -> None

let emit (b : buf) (i : instr) =
  let tk = b.pending in
  b.pending <- 0;
  match
    if tk = 0 && b.len > 0 && b.lastlab <> b.len then
      fuse b.code.(b.len - 1) i
    else None
  with
  | Some f ->
      b.code.(b.len - 1) <- f;
      (* [prev]'s delta is already in [od]; the fused form adds [i]'s *)
      bump b i;
      (* cascade: the combined instruction may fuse again with its own
         predecessor. A label on the surviving slot is fine (the fused
         run starts there); one on the vacated slot blocks it, and so
         does a pre-tick there, except for the one-tick statement
         boundary [fuse_across] spans. *)
      let rec settle () =
        if b.len >= 2 && b.lastlab < b.len - 1 then
          let prev = b.code.(b.len - 2) and f = b.code.(b.len - 1) in
          let fused =
            match b.ticks.(b.len - 1) with
            | 0 -> fuse2 prev f
            | 1 -> fuse_across prev f
            | _ -> None
          in
          match fused with
          | Some g ->
              b.len <- b.len - 1;
              b.code.(b.len - 1) <- g;
              settle ()
          | None -> ()
      in
      settle ()
  | None ->
      if b.len = Array.length b.code then begin
        let nc = Array.make (2 * b.len) IReturnUnit in
        Array.blit b.code 0 nc 0 b.len;
        b.code <- nc;
        let nt = Array.make (2 * b.len) 0 in
        Array.blit b.ticks 0 nt 0 b.len;
        b.ticks <- nt
      end;
      b.code.(b.len) <- i;
      b.ticks.(b.len) <- tk;
      b.len <- b.len + 1;
      bump b i

(* A statement entry: its tick becomes the pre-tick of the next
   instruction emitted. *)
let emit_tick b = b.pending <- b.pending + 1

(* Emit a forward jump with a placeholder target; returns the patch site
   (the fused slot, when the jump merged into its predecessor). *)
let emit_patch b i =
  emit b i;
  b.len - 1

(* The last [k] slots may be rewritten as one instruction: no label
   lands after the first of them and no tick fires between them. A
   label or a pre-tick on the first slot is fine — [rewind] hands that
   pre-tick to the replacement. *)
let run_ok b k =
  let rec quiet j = j >= b.len || (b.ticks.(j) = 0 && quiet (j + 1)) in
  b.len >= k && b.lastlab <= b.len - k && quiet (b.len - k + 1)

(* Drop the last [k] slots; the next [emit] carries the first one's
   pre-tick. *)
let rewind b k =
  b.len <- b.len - k;
  b.pending <- b.ticks.(b.len)

(* Collapse a settled [this->arr[ix]->f = rhs] statement tail into one
   [IThisIdxFieldStoreI] dispatch. Runs right after the statement's
   final store lands (and its pairwise fusions settle), so the tail
   shapes below are exactly what the disassembly shows for the hot
   dependency-edge stores. Every matched run is stack-neutral, so
   [b.od]/[b.iod] need no rollback. *)
let fuse_this_idx_store b =
  let n = b.len in
  let at k = b.code.(n - k) in
  let replace k i =
    rewind b k;
    emit b i
  in
  match
    if run_ok b 4 then (at 4, at 3, at 2, at 1) else (IPop, IPop, IPop, IPop)
  with
  | ( IThisField (s1, m1),
      ILoadIndexI i,
      ILocFieldI (s2, m2),
      IAssignFieldCIPop (ic, k) ) ->
      replace 4 (IThisIdxFieldStoreI (s1, m1, IxLocal i, s2, m2, ic, RConst k))
  | ( IThisField (s1, m1),
      ILoadIndexI i,
      ILocFieldI (s2, m2),
      IAssignFieldLIPop (ic, j) ) ->
      replace 4 (IThisIdxFieldStoreI (s1, m1, IxLocal i, s2, m2, ic, RLocal j))
  | _ -> (
      match
        if run_ok b 5 then (at 5, at 4, at 3, at 2, at 1)
        else (IPop, IPop, IPop, IPop, IPop)
      with
      | ( IThisField (s1, m1),
          ILoadFieldI (j, s2, m2),
          IIndexI,
          ILocFieldI (s3, m3),
          IAssignFieldLIPop (ic, i) ) ->
          replace 5
            (IThisIdxFieldStoreI
               (s1, m1, IxLocField (j, s2, m2), s3, m3, ic, RLocal i))
      | ( IThisField (s1, m1),
          ILoadFieldI (j, s2, m2),
          IIndexI,
          ILocFieldI (s3, m3),
          IAssignFieldCIPop (ic, k) ) ->
          replace 5
            (IThisIdxFieldStoreI
               (s1, m1, IxLocField (j, s2, m2), s3, m3, ic, RConst k))
      | _ ->
          if run_ok b 9 then
            match (at 9, at 8, at 7, at 6, at 5, at 4, at 3, at 2, at 1) with
            | ( IThisField (s1, m1),
                ILoadFieldI (j, s2, m2),
                IIndexI,
                ILocFieldI (s3, m3),
                IThisField (s4, m4),
                ILoadFieldI (j2, s5, m5),
                IIndexFieldI (s6, m6),
                IBinopConstI (op, k),
                IAssignFieldIPop ic ) ->
                replace 9
                  (IThisIdxFieldStoreI
                     ( s1,
                       m1,
                       IxLocField (j, s2, m2),
                       s3,
                       m3,
                       ic,
                       RThisIdxField
                         (s4, m4, IxLocField (j2, s5, m5), s6, m6, op, k) ))
            | _ -> ())

(* RPN decomposition of the opcodes allowed inside a fused int store. *)
let rpn_of_instr = function
  | IConstI k -> Some [ RpConst k ]
  | ILoadI i -> Some [ RpLocal i ]
  | ILoadFieldI (j, s, m) -> Some [ RpLoadField (j, s, m) ]
  | IThisFieldI (s, m) -> Some [ RpThisField (s, m) ]
  | IFieldIdxFieldI (i, s, m, j, op, k, s2, m2) ->
      Some [ RpFieldIdxField (i, s, m, j, op, k, s2, m2) ]
  | IBinopII op -> Some [ RpBinop op ]
  | IBinopConstI (op, k) -> Some [ RpBinopConst (op, k) ]
  | IThisFieldBinopI (s, m, op) -> Some [ RpThisField (s, m); RpBinop op ]
  | ILoadFieldBinopI (j, s, m, op) ->
      Some [ RpLoadField (j, s, m); RpBinop op ]
  | ILoadFieldBCI (n, s, m, op, k) ->
      Some [ RpLoadField (n, s, m); RpBinopConst (op, k) ]
  | ILoadLoadFieldI (i, j, s, m) ->
      Some [ RpLocal i; RpLoadField (j, s, m) ]
  | _ -> None

let rpn_delta = function
  | RpConst _ | RpLocal _ | RpLoadField _ | RpThisField _
  | RpFieldIdxField _ | RpFieldField _ ->
      1
  | RpBinop _ -> -1
  | RpBinopConst _ -> 0

(* Collapse a settled pure-int assignment statement into one
   [IRpnStoreI]. Walks back from the just-landed [IAssignFieldIPop]
   over rpn-able opcodes until the destination-resolution shape, then
   replaces the whole run. Fires only when it saves at least four
   dispatches, so the short statements keep their specialized
   superinstructions. The collapsed run is stack-neutral, so no depth
   rollback. *)
let fuse_rpn_store b =
  let n = b.len in
  match if n >= 1 then b.code.(n - 1) else IReturnUnit with
  | IAssignFieldIPop ic -> (
      let rec walk p acc =
        if p < 1 || n - 1 - p > 16 then None
        else
          match rpn_of_instr b.code.(p) with
          | Some ops -> walk (p - 1) (ops @ acc)
          | None
            when p >= 2
                 &&
                 (match (b.code.(p - 1), b.code.(p)) with
                 | ILoadField _, IFieldI _ -> true
                 | _ -> false) -> (
              (* the boxed-intermediate pair [l->a->b]: one int leaf *)
              match (b.code.(p - 1), b.code.(p)) with
              | ILoadField (j, s, m), IFieldI (s2, m2) ->
                  walk (p - 2) (RpFieldField (j, s, m, s2, m2) :: acc)
              | _ -> None)
          | None -> (
              (* [p] must be the destination shape, fully before [acc],
                 and the rhs run must produce exactly one int *)
              if List.fold_left (fun d r -> d + rpn_delta r) 0 acc <> 1 then
                None
              else
                match b.code.(p) with
                | ILoadLocFieldI (a, s, m) -> Some (p, DLocField (a, s, m), acc)
                | ILocFieldI (s2, m2) -> (
                    match b.code.(p - 1) with
                    | ILoadFieldIndexI (a, s, m, i) ->
                        Some (p - 1, DFieldIdx (a, s, m, i, s2, m2), acc)
                    | ILoadField (i, s, m) ->
                        Some (p - 1, DFieldLocField (i, s, m, s2, m2), acc)
                    | _ -> None)
                | _ -> None)
      in
      match if n >= 6 then walk (n - 2) [] else None with
      | Some (p, dst, ops) when n - p >= 5 && run_ok b (n - p) ->
          rewind b (n - p);
          emit b (IRpnStoreI (dst, Array.of_list ops, ic))
      | _ -> ())
  | _ -> ()

(* Store a boxed value into an int local, collapsing the
   [IBinopConst; ICastInt] coercion tail (the post-call shape) into the
   store when present. *)
let emit_store_ib_pop b ty i =
  match
    if run_ok b 2 then (b.code.(b.len - 2), b.code.(b.len - 1))
    else (IPop, IPop)
  with
  | IBinopConst (op, v), ICastInt ->
      rewind b 2;
      emit b (IBinopConstCastStoreI (op, v, ty, i))
  | _ -> emit b (IStoreLocalIBPop (ty, i))

(* After an int-local store lands, collapse the dependency-chase shape
   [push this->arr; push objlocal->idx; index-and-read ->field;
   store intlocal] into one [IThisFieldIdxFStoreI] dispatch. All four
   instructions are stack-neutral as a group, so no depth rollback is
   needed. *)
let fuse_tfield_idx_store b =
  let n = b.len in
  if run_ok b 4 then
    match (b.code.(n - 4), b.code.(n - 3), b.code.(n - 2), b.code.(n - 1)) with
    | ( IThisField (s, m),
        ILoadFieldI (j, s2, m2),
        IIndexFieldI (s3, m3),
        IStoreLocalPopI (ic, i) ) ->
        rewind b 4;
        emit b (IThisFieldIdxFStoreI (s, m, j, s2, m2, s3, m3, ic, i))
    | _ -> ()

(* Ticks still pending when a label is placed belong before it: jumpers
   to the label must not run them, so they get an [ITick] slot of their
   own. *)
let flush_ticks b = if b.pending > 0 then emit b ITick

(* Mark the frontier as a jump target (blocks fusion across it). *)
let here b =
  flush_ticks b;
  b.lastlab <- b.len;
  b.len

let patch_to (b : buf) (t : int) (i : int) =
  b.code.(i) <-
    (match b.code.(i) with
    | IJump _ -> IJump t
    | IJumpIfFalse _ -> IJumpIfFalse t
    | IJumpIfTrue _ -> IJumpIfTrue t
    | IJumpCmpFalse (op, _) -> IJumpCmpFalse (op, t)
    | IJumpCmpConstFalse (op, v, _) -> IJumpCmpConstFalse (op, v, t)
    | IJumpLocCmpConstFalse (n, op, v, _) -> IJumpLocCmpConstFalse (n, op, v, t)
    | IJumpLocCmpFalse (op, n, _) -> IJumpLocCmpFalse (op, n, t)
    | IJumpLoc2CmpFalse (op, x, y, _) -> IJumpLoc2CmpFalse (op, x, y, t)
    | ILoadFieldStoreJump (i, s, m, j, ty, _) ->
        ILoadFieldStoreJump (i, s, m, j, ty, t)
    | IStoreLocalPopJump (n, ty, _) -> IStoreLocalPopJump (n, ty, t)
    | IIncDecLocalJump (w, n, _) -> IIncDecLocalJump (w, n, t)
    | IAndFalse _ -> IAndFalse t
    | ILoadFieldCmpLocFalse (n, s, m, op, y, _) ->
        ILoadFieldCmpLocFalse (n, s, m, op, y, t)
    | IBinopConstAndFalse (op, v, _) -> IBinopConstAndFalse (op, v, t)
    | ILoadFieldBinopJumpFalse (n, s, m, op, _) ->
        ILoadFieldBinopJumpFalse (n, s, m, op, t)
    | IJumpBCCmpFalse (o1, v, o2, _) -> IJumpBCCmpFalse (o1, v, o2, t)
    | ILoadFieldBCAndFalse (n, s, m, op, v, _) ->
        ILoadFieldBCAndFalse (n, s, m, op, v, t)
    | IJumpLocFCmpFalse (i, j, s, m, op, _) ->
        IJumpLocFCmpFalse (i, j, s, m, op, t)
    | IJumpLL2FBCCmpFalse (i, j, s, m, op1, v, op2, _) ->
        IJumpLL2FBCCmpFalse (i, j, s, m, op1, v, op2, t)
    | IOrTrue _ -> IOrTrue t
    (* typed branch forms *)
    | IJumpIfFalseI _ -> IJumpIfFalseI t
    | IJumpIfTrueI _ -> IJumpIfTrueI t
    | IJumpIfFalseF _ -> IJumpIfFalseF t
    | IJumpIfTrueF _ -> IJumpIfTrueF t
    | IAndFalseI _ -> IAndFalseI t
    | IOrTrueI _ -> IOrTrueI t
    | IJumpCmpFalseI (op, _) -> IJumpCmpFalseI (op, t)
    | IJumpCmpConstFalseI (op, k, _) -> IJumpCmpConstFalseI (op, k, t)
    | IJumpLocCmpConstFalseI (n, op, k, _) ->
        IJumpLocCmpConstFalseI (n, op, k, t)
    | IJumpLocCmpFalseI (op, n, _) -> IJumpLocCmpFalseI (op, n, t)
    | IJumpLoc2CmpFalseI (op, x, y, _) -> IJumpLoc2CmpFalseI (op, x, y, t)
    | IJumpLocFCmpFalseI (i, j, s, m, op, _) ->
        IJumpLocFCmpFalseI (i, j, s, m, op, t)
    | IJumpBCCmpFalseI (o1, k, o2, _) -> IJumpBCCmpFalseI (o1, k, o2, t)
    | IJumpLL2FBCCmpFalseI (i, j, s, m, op1, k, op2, _) ->
        IJumpLL2FBCCmpFalseI (i, j, s, m, op1, k, op2, t)
    | ILoadFieldBCAndFalseI (n, s, m, op, k, _) ->
        ILoadFieldBCAndFalseI (n, s, m, op, k, t)
    | IJumpLocTFCmpFalseI (op, x, s, m, _) ->
        IJumpLocTFCmpFalseI (op, x, s, m, t)
    | IJumpLocFieldBCFalseI (n, s, m, op, k, _) ->
        IJumpLocFieldBCFalseI (n, s, m, op, k, t)
    | ITLFIndexIStoreJumpFBCI (st, br, _) -> ITLFIndexIStoreJumpFBCI (st, br, t)
    | IJumpThisFieldBCFalseI (s, m, op, k, _) ->
        IJumpThisFieldBCFalseI (s, m, op, k, t)
    | ILoadFieldCmpLocFalseI (n, s, m, op, y, _) ->
        ILoadFieldCmpLocFalseI (n, s, m, op, y, t)
    | ILoadFieldBinopJumpFalseI (n, s, m, op, _) ->
        ILoadFieldBinopJumpFalseI (n, s, m, op, t)
    | IStoreLocalPopJumpI (ic, n, _) -> IStoreLocalPopJumpI (ic, n, t)
    | IIncDecLocalJumpI (w, n, _) -> IIncDecLocalJumpI (w, n, t)
    | _ -> assert false)

(* Land the given patch sites on the frontier. *)
let land_patches b sites =
  if sites <> [] then begin
    flush_ticks b;
    let t = b.len in
    List.iter (patch_to b t) sites;
    b.lastlab <- b.len
  end

(* Branch on a falsy condition, fusing the comparison just emitted into
   the branch: [a CMP b] becomes one compare-and-branch, [a CMP const]
   folds the constant in, and [local CMP const] — the canonical for-loop
   condition — folds the load too, deleting its slot. The fused
   instructions run the same [value_eq] / [compare_test] the tree engine
   ran, so errors are unchanged. Deleting a slot additionally requires
   that no label lands on it and no tick fires before it. *)
let emit_branch_false b =
  if b.len > 0 && b.lastlab <> b.len then
    match b.code.(b.len - 1) with
    | IBinop op when is_cmp op -> (
        match if run_ok b 2 then b.code.(b.len - 2) else IReturnUnit with
        | ILoad y
          when run_ok b 3
               && (match b.code.(b.len - 3) with ILoad _ -> true | _ -> false)
          ->
            (* [ILoad x; ILoad y; CMP]: the whole condition in one *)
            let x =
              match b.code.(b.len - 3) with ILoad x -> x | _ -> assert false
            in
            rewind b 3;
            b.od <- b.od - 1;  (* roll back +1 +1 -1 *)
            emit_patch b (IJumpLoc2CmpFalse (op, x, y, -1))
        | ILoad y ->
            rewind b 2;  (* roll back +1 -1 *)
            emit_patch b (IJumpLocCmpFalse (op, y, -1))
        | ILoadLoadField (x, y, s, m) ->
            (* [lx; ly.f; CMP]: the whole condition in one instruction *)
            b.len <- b.len - 1;
            b.od <- b.od - 1;  (* +2 -1 applied; the fused branch is 0 *)
            b.code.(b.len - 1) <- IJumpLocFCmpFalse (x, y, s, m, op, -1);
            b.len - 1
        | IBinopConst (op1, cv)
          when run_ok b 3
               && match b.code.(b.len - 3) with
                  | ILoadLoadField _ -> true
                  | _ -> false -> (
            (* [lx; ly.f; (.. OP1 k); CMP] in one instruction *)
            match b.code.(b.len - 3) with
            | ILoadLoadField (x, y, s, m) ->
                b.len <- b.len - 2;
                b.od <- b.od - 1;  (* +2 0 -1 applied; the fused branch is 0 *)
                b.code.(b.len - 1) <-
                  IJumpLL2FBCCmpFalse (x, y, s, m, op1, cv, op, -1);
                b.len - 1
            | _ -> assert false)
        | IBinopConst (op1, cv) ->
            (* [x; (a OP1 k); CMP]: fold the constant binop into the
               branch (the scrutinee guard excludes a label here) *)
            b.len <- b.len - 1;
            b.od <- b.od - 1;  (* 0 -1 applied; the fused branch is -2 *)
            b.code.(b.len - 1) <- IJumpBCCmpFalse (op1, cv, op, -1);
            b.len - 1
        | _ ->
            b.code.(b.len - 1) <- IJumpCmpFalse (op, -1);
            b.od <- b.od - 1;  (* IBinop's -1 was applied; fused is -2 *)
            b.len - 1)
    | ILoadBinopConst (n, op, v) when is_cmp op ->
        (* the cascade already folded [ILoad; IConst; CMP]; turn it into
           the canonical for-loop branch in place *)
        b.code.(b.len - 1) <- IJumpLocCmpConstFalse (n, op, v, -1);
        b.od <- b.od - 1;  (* +1 applied; the fused branch is net 0 *)
        b.len - 1
    | IBinopConst (op, v) when is_cmp op -> (
        match if run_ok b 2 then b.code.(b.len - 2) else IReturnUnit with
        | ILoad n ->
            (* roll back [ILoad; IBinopConst] (net +1); the fused branch
               is net 0 *)
            rewind b 2;
            b.od <- b.od - 1;
            emit_patch b (IJumpLocCmpConstFalse (n, op, v, -1))
        | _ ->
            b.code.(b.len - 1) <- IJumpCmpConstFalse (op, v, -1);
            b.od <- b.od - 1;  (* IBinopConst's 0 was applied; fused is -1 *)
            b.len - 1)
    | _ -> emit_patch b (IJumpIfFalse (-1))
  else emit_patch b (IJumpIfFalse (-1))

(* The typed image of [emit_branch_false] for an int-shaped condition:
   same folds, same label and tick guards, with the depth bookkeeping on
   the untagged int stack. *)
let emit_branch_false_i b =
  if b.len > 0 && b.lastlab <> b.len then
    match b.code.(b.len - 1) with
    | IBinopII op when is_cmp op -> (
        match if run_ok b 2 then b.code.(b.len - 2) else IReturnUnit with
        | ILoadI y
          when run_ok b 3
               && (match b.code.(b.len - 3) with ILoadI _ -> true | _ -> false)
          ->
            let x =
              match b.code.(b.len - 3) with ILoadI x -> x | _ -> assert false
            in
            rewind b 3;
            b.iod <- b.iod - 1;
            emit_patch b (IJumpLoc2CmpFalseI (op, x, y, -1))
        | ILoadI y ->
            rewind b 2;
            emit_patch b (IJumpLocCmpFalseI (op, y, -1))
        | ILoadLoadFieldI (x, y, s, m) ->
            b.len <- b.len - 1;
            b.iod <- b.iod - 1;
            b.code.(b.len - 1) <- IJumpLocFCmpFalseI (x, y, s, m, op, -1);
            b.len - 1
        | IBinopConstI (op1, k)
          when run_ok b 3
               && match b.code.(b.len - 3) with
                  | ILoadLoadFieldI _ -> true
                  | _ -> false -> (
            match b.code.(b.len - 3) with
            | ILoadLoadFieldI (x, y, s, m) ->
                b.len <- b.len - 2;
                b.iod <- b.iod - 1;
                b.code.(b.len - 1) <-
                  IJumpLL2FBCCmpFalseI (x, y, s, m, op1, k, op, -1);
                b.len - 1
            | _ -> assert false)
        | IBinopConstI (op1, k) ->
            b.len <- b.len - 1;
            b.iod <- b.iod - 1;
            b.code.(b.len - 1) <- IJumpBCCmpFalseI (op1, k, op, -1);
            b.len - 1
        | _ ->
            b.code.(b.len - 1) <- IJumpCmpFalseI (op, -1);
            b.iod <- b.iod - 1;
            b.len - 1)
    | ILoadBinopConstI (n, op, k) when is_cmp op ->
        b.code.(b.len - 1) <- IJumpLocCmpConstFalseI (n, op, k, -1);
        b.iod <- b.iod - 1;
        b.len - 1
    | IBinopConstI (op, k) when is_cmp op -> (
        match if run_ok b 2 then b.code.(b.len - 2) else IReturnUnit with
        | ILoadI n ->
            rewind b 2;
            b.iod <- b.iod - 1;
            emit_patch b (IJumpLocCmpConstFalseI (n, op, k, -1))
        | ILoadFieldI (n, s, m) -> (
            (* a preceding indexed-load statement fuses in too, with the
               guard statement's one tick between them: the list-walk
               loops test a member of the object the previous statement
               just fetched *)
            match
              if b.len >= 3 && b.lastlab <= b.len - 3 && b.ticks.(b.len - 2) = 1
              then b.code.(b.len - 3)
              else IReturnUnit
            with
            | ILoadFieldIndexStoreI (a, s0, m0, i0, x0, ty0) ->
                rewind b 3;
                b.iod <- b.iod - 1;
                emit_patch b
                  (ITLFIndexIStoreJumpFBCI
                     ((a, s0, m0, i0, x0, ty0), (n, s, m, op, k), -1))
            | _ ->
                rewind b 2;
                b.iod <- b.iod - 1;
                emit_patch b (IJumpLocFieldBCFalseI (n, s, m, op, k, -1)))
        | IThisFieldI (s, m) ->
            rewind b 2;
            b.iod <- b.iod - 1;
            emit_patch b (IJumpThisFieldBCFalseI (s, m, op, k, -1))
        | _ ->
            b.code.(b.len - 1) <- IJumpCmpConstFalseI (op, k, -1);
            b.iod <- b.iod - 1;
            b.len - 1)
    | ILoadBinopI (op, y) when is_cmp op -> (
        (* eager fusion already folded [ILoadI y; CMP]; recover the
           local-compare branches it used to feed *)
        match if run_ok b 2 then b.code.(b.len - 2) else IReturnUnit with
        | ILoadI x ->
            rewind b 2;
            b.iod <- b.iod - 1;
            emit_patch b (IJumpLoc2CmpFalseI (op, x, y, -1))
        | _ ->
            (* re-emit (rather than replace in place) so the branch can
               still fuse with its new predecessor, e.g. into
               [ILoadFieldCmpLocFalseI] *)
            rewind b 1;
            emit_patch b (IJumpLocCmpFalseI (op, y, -1)))
    | ILoadLoadFieldBinopI (x, y, s, m, op) when is_cmp op ->
        b.code.(b.len - 1) <- IJumpLocFCmpFalseI (x, y, s, m, op, -1);
        b.iod <- b.iod - 1;
        b.len - 1
    | IThisFieldBinopI (s, m, op)
      when is_cmp op && run_ok b 2
           && (match b.code.(b.len - 2) with ILoadI _ -> true | _ -> false) ->
        (* [local CMP this.f] — the canonical [i < this->n] loop guard *)
        let x =
          match b.code.(b.len - 2) with ILoadI x -> x | _ -> assert false
        in
        rewind b 2;
        b.iod <- b.iod - 1;
        emit_patch b (IJumpLocTFCmpFalseI (op, x, s, m, -1))
    | _ -> emit_patch b (IJumpIfFalseI (-1))
  else emit_patch b (IJumpIfFalseI (-1))

(* Branch on a falsy condition whose compiled shape is [sh]. *)
let emit_cond_false b (sh : shape) =
  match sh with
  | SBox -> emit_branch_false b
  | SInt -> emit_branch_false_i b
  | SFlt -> emit_patch b (IJumpIfFalseF (-1))

(* Move the top of a typed stack over to the boxed stack. *)
let box_top b (sh : shape) =
  match sh with SBox -> () | SInt -> emit b IBoxI | SFlt -> emit b IBoxF

(* Same, but the boxed stack already holds one later value on top: the
   bridged value is inserted *under* it (pure stack juggling, used when
   a binop's lhs turned out typed while its rhs is boxed). *)
let box_under b (sh : shape) =
  match sh with SBox -> () | SInt -> emit b IBoxIU | SFlt -> emit b IBoxFU

let bop_of_assign (op : Ast.assign_op) : Ast.binop =
  match op with
  | Ast.AddAssign -> Ast.Add
  | Ast.SubAssign -> Ast.Sub
  | Ast.MulAssign -> Ast.Mul
  | Ast.DivAssign -> Ast.Div
  | Ast.ModAssign -> Ast.Mod
  | Ast.AndAssign -> Ast.BAnd
  | Ast.OrAssign -> Ast.BOr
  | Ast.XorAssign -> Ast.BXor
  | Ast.ShlAssign -> Ast.Shl
  | Ast.ShrAssign -> Ast.Shr
  | Ast.Assign -> assert false

(* Static shape prediction. Needed only where the compiler must commit
   to a stack before a subexpression is emitted (the lhs of a binop
   whose rhs is boxed, [&&]/[||] arms). It is syntax-directed over the
   same cases as [compile_expr], so the two always agree; even if they
   ever diverged, the cost would be an extra box bridge, never a
   semantic change — [compile_expr]'s returned shape is authoritative. *)
let rec shape_of (e : rexpr) : shape =
  match e with
  | RConst (VInt _) -> SInt
  | RConst (VFloat _) -> SFlt
  | RLocalI _ | RFieldI _ -> SInt
  | RLocalF _ | RFieldF _ -> SFlt
  | RUnary (op, a) -> (
      match shape_of a with
      | SInt -> SInt
      | SFlt -> (
          match op with
          | Ast.Neg | Ast.UPlus -> SFlt
          | Ast.Not -> SInt
          | Ast.BitNot -> SBox)
      | SBox -> SBox)
  | RBinary ((Ast.LAnd | Ast.LOr), x, y) ->
      if shape_of x = SInt && shape_of y = SInt then SInt else SBox
  | RBinary (op, x, y) -> (
      match (shape_of x, shape_of y) with
      | SInt, SInt -> SInt
      | (SInt | SFlt), (SInt | SFlt) -> if is_cmp op then SInt else SFlt
      | _ -> SBox)
  | RAssign (lhs, rhs, _) | RCompound (_, lhs, rhs, _) -> (
      match lhs with
      | LvLocalI _ | LvFieldI _ -> if shape_of rhs = SInt then SInt else SBox
      | LvLocalF _ | LvFieldF _ -> (
          match shape_of rhs with SInt | SFlt -> SFlt | SBox -> SBox)
      | _ -> SBox)
  | RIncDec (_, _, (LvLocalI _ | LvFieldI _)) -> SInt
  | RIncDec (_, _, (LvLocalF _ | LvFieldF _)) -> SFlt
  | RCastInt a -> ( match shape_of a with SBox -> SBox | _ -> SInt)
  | RCastFloat a -> ( match shape_of a with SBox -> SBox | _ -> SFlt)
  | _ -> SBox

type loopctx = { mutable brk : int list; mutable cont : int list; base : int }

(* [compile_expr] returns the shape of the value it left behind: which
   operand stack holds the result. Typed results stay untagged until a
   consumer genuinely needs a boxed value ([compile_expr_box]); the box
   bridges are ordinary instructions, so a conservative prediction can
   only cost a bridge dispatch, never change semantics. *)
let rec compile_expr b (e : rexpr) : shape =
  match e with
  | RConst (VInt n) -> emit b (IConstI n); SInt
  | RConst (VFloat f) -> emit b (IConstF f); SFlt
  | RConst v -> emit b (IConst v); SBox
  | RLocal i -> emit b (ILoad i); SBox
  | RLocalI i -> emit b (ILoadI i); SInt
  | RLocalF i -> emit b (ILoadF i); SFlt
  | RLocalRef i -> emit b (ILoadRef i); SBox
  | RGlobal i -> emit b (IGlobal i); SBox
  | RStatic i -> emit b (IStatic i); SBox
  | RThis -> emit b IThis; SBox
  | RUnary (op, a) -> (
      match compile_expr b a with
      | SInt ->
          emit b (IUnaryI op);
          SInt
      | SFlt -> (
          match op with
          | Ast.Neg ->
              emit b INegF;
              SFlt
          | Ast.UPlus -> SFlt
          | Ast.Not ->
              emit b INotF;
              SInt
          | Ast.BitNot ->
              (* "invalid unary operand" comes from the generic arm *)
              emit b IBoxF;
              emit b (IUnary op);
              SBox)
      | SBox ->
          emit b (IUnary op);
          SBox)
  | RBinary (Ast.LAnd, x, y) ->
      if shape_of x = SInt && shape_of y = SInt then begin
        (match compile_expr b x with SInt -> () | _ -> assert false);
        let j = emit_patch b (IAndFalseI (-1)) in
        (match compile_expr b y with SInt -> () | _ -> assert false);
        emit b IToBoolI;
        land_patches b [ j ];
        SInt
      end
      else begin
        compile_expr_box b x;
        let j = emit_patch b (IAndFalse (-1)) in
        compile_expr_box b y;
        emit b IToBool;
        land_patches b [ j ];
        SBox
      end
  | RBinary (Ast.LOr, x, y) ->
      if shape_of x = SInt && shape_of y = SInt then begin
        (match compile_expr b x with SInt -> () | _ -> assert false);
        let j = emit_patch b (IOrTrueI (-1)) in
        (match compile_expr b y with SInt -> () | _ -> assert false);
        emit b IToBoolI;
        land_patches b [ j ];
        SInt
      end
      else begin
        compile_expr_box b x;
        let j = emit_patch b (IOrTrue (-1)) in
        compile_expr_box b y;
        emit b IToBool;
        land_patches b [ j ];
        SBox
      end
  | RBinary (op, x, y) -> (
      let sx = compile_expr b x in
      (* if the rhs will be boxed, bridge the lhs now so the two reach
         the boxed stack in evaluation order (boxing is pure) *)
      let sx =
        if sx <> SBox && shape_of y = SBox then begin
          box_top b sx;
          SBox
        end
        else sx
      in
      let sy = compile_expr b y in
      match (sx, sy) with
      | SBox, sy ->
          box_top b sy;
          emit b (IBinop op);
          SBox
      | SInt, SInt ->
          emit b (IBinopII op);
          SInt
      | SFlt, SFlt ->
          if is_cmp op then begin
            emit b (ICmpFF op);
            SInt
          end
          else begin
            emit b (IArithFF op);
            SFlt
          end
      | SInt, SFlt ->
          if is_cmp op then begin
            emit b (ICmpIF op);
            SInt
          end
          else begin
            emit b (IArithIF op);
            SFlt
          end
      | SFlt, SInt ->
          if is_cmp op then begin
            emit b (ICmpFI op);
            SInt
          end
          else begin
            emit b (IArithFI op);
            SFlt
          end
      | (SInt | SFlt), SBox ->
          (* the prediction promised a typed rhs; bridge the lhs under
             the boxed rhs instead *)
          box_under b sx;
          emit b (IBinop op);
          SBox)
  | RAssign (lhs, rhs, ty) -> compile_assign b lhs rhs ty ~keep:true
  | RCompound (op, lhs, rhs, ty) -> compile_compound b op lhs rhs ty ~keep:true
  | RIncDec (w, fx, lv) -> compile_incdec b w fx lv ~keep:true
  | RCond (c, t, f) ->
      let shc = compile_expr b c in
      let j1 = emit_cond_false b shc in
      let d0 = b.od and di0 = b.iod and df0 = b.fod in
      compile_expr_box b t;
      let j2 = emit_patch b (IJump (-1)) in
      land_patches b [ j1 ];
      (* the two arms join at the same depth on all three stacks *)
      b.od <- d0;
      b.iod <- di0;
      b.fod <- df0;
      compile_expr_box b f;
      land_patches b [ j2 ];
      SBox
  | RCastInt a -> (
      match compile_expr b a with
      | SInt -> SInt
      | SFlt ->
          emit b ICastFI;
          SInt
      | SBox ->
          emit b ICastInt;
          SBox)
  | RCastFloat a -> (
      match compile_expr b a with
      | SFlt -> SFlt
      | SInt ->
          emit b ICastIF;
          SFlt
      | SBox ->
          emit b ICastFloat;
          SBox)
  | RField (oe, slots, m) ->
      compile_expr_box b oe;
      emit b (IField (slots, m));
      SBox
  | RFieldI (oe, slots, m) ->
      compile_expr_box b oe;
      emit b (IFieldI (slots, m));
      SInt
  | RFieldF (oe, slots, m) ->
      compile_expr_box b oe;
      emit b (IFieldF (slots, m));
      SFlt
  | RCall c ->
      compile_call b c;
      SBox
  | RAddrOf lv ->
      compile_lval b lv;
      emit b IAddrOf;
      SBox
  | RDeref a ->
      compile_expr_box b a;
      emit b IDeref;
      SBox
  | RIndex (a, i) ->
      compile_expr_box b a;
      (match compile_expr b i with
      | SInt -> emit b IIndexI
      | SFlt ->
          (* as_int (VFloat f) = int_of_float f *)
          emit b ICastFI;
          emit b IIndexI
      | SBox -> emit b IIndex);
      SBox
  | RMemPtrDeref (recv, pm) ->
      (* the receiver must be an object before the member pointer is even
         evaluated — same error order as the tree engine *)
      compile_expr_box b recv;
      emit b IAsObj;
      compile_expr_box b pm;
      emit b IMemPtrDeref;
      SBox
  | RNewObj { no_cid; no_cls; no_ctor; no_args } ->
      compile_args b no_args;
      emit b
        (INewObj
           {
             n_cid = no_cid;
             n_cls = no_cls;
             n_ctor = no_ctor;
             n_argc = Array.length no_args;
           });
      SBox
  | RNewScalar { ns_bytes; ns_ty } ->
      emit b (INewScalar (ns_bytes, ns_ty));
      SBox
  | RNewArrObj { na_cid; na_cls; na_ctor; na_len } ->
      compile_expr_box b na_len;
      emit b (INewArrObj { w_cid = na_cid; w_cls = na_cls; w_ctor = na_ctor });
      SBox
  | RNewArrScalar { nas_ty; nas_elem_bytes; nas_len } ->
      compile_expr_box b nas_len;
      emit b (INewArrScalar (nas_ty, nas_elem_bytes));
      SBox
  | RInvalid msg ->
      emit b (IRaise msg);
      SBox

and compile_expr_box b (e : rexpr) = box_top b (compile_expr b e)

(* Assignment, in expression ([~keep:true]: the stored value stays for
   the surrounding expression) or statement position. The lhs location
   is established before the rhs runs, exactly as the tree engine's
   [eval_lval]-then-[eval] order; for unboxed members that means
   [ILocFieldI]/[ILocFieldF] resolve the slot (and raise any
   missing-member error) first. Cross-shape stores bridge through the
   boxed instruction forms, which run the same [coerce] the tree engine
   ran. *)
and compile_assign b (lhs : rlval) rhs ty ~keep : shape =
  match lhs with
  | LvLocal i ->
      compile_expr_box b rhs;
      emit b (if keep then IStoreLocal (i, ty) else IStoreLocalPop (i, ty));
      SBox
  | LvLocalI i -> (
      match compile_expr b rhs with
      | SInt ->
          let ic = ic_of_ty ty in
          emit b
            (if keep then IStoreLocalI (ic, i) else IStoreLocalPopI (ic, i));
          if not keep then fuse_tfield_idx_store b;
          SInt
      | sh ->
          box_top b sh;
          if keep then emit b (IStoreLocalIB (ty, i))
          else emit_store_ib_pop b ty i;
          SBox)
  | LvLocalF i -> (
      match compile_expr b rhs with
      | SBox ->
          emit b
            (if keep then IStoreLocalFB (ty, i) else IStoreLocalFBPop (ty, i));
          SBox
      | sh ->
          (* coerce to float = float_of_int on an int rhs *)
          if sh = SInt then emit b ICastIF;
          emit b (if keep then IStoreLocalF i else IStoreLocalPopF i);
          SFlt)
  | LvFieldI (oe, s, m) -> (
      compile_expr_box b oe;
      emit b (ILocFieldI (s, m));
      match compile_expr b rhs with
      | SInt ->
          let ic = ic_of_ty ty in
          (* [this->dst = xform(this->src)]: fold the whole statement
             into one dispatch (the PRNG-step shape in hot loops) *)
          let fused =
            (not keep) && run_ok b 3
            &&
            match
              (b.code.(b.len - 3), b.code.(b.len - 2), b.code.(b.len - 1))
            with
            | ( IThisLocFieldI (sd, md),
                IThisFieldI (ss, ms),
                IBinopConst3I (o1, k1, o2, k2, o3, k3) ) ->
                rewind b 3;
                b.od <- b.od - 1;
                b.iod <- b.iod - 2;
                emit b
                  (IThisXAssignI
                     (sd, md, ss, ms, XBc3 (o1, k1, o2, k2, o3, k3), ic));
                true
            | IThisLocFieldI (sd, md), IThisFieldI (ss, ms), IUnaryI op ->
                rewind b 3;
                b.od <- b.od - 1;
                b.iod <- b.iod - 2;
                emit b (IThisXAssignI (sd, md, ss, ms, XUn op, ic));
                true
            | _ -> false
          in
          if not fused then begin
            emit b (if keep then IAssignFieldI ic else IAssignFieldIPop ic);
            (* [this->arr[ix]->f = rhs]: after the tail fusions above
               settle, collapse the whole statement (the dependency-edge
               stores dominating hot graph-building loops). The removed
               run is stack-neutral, so no depth rollback is needed. *)
            if not keep then begin
              fuse_this_idx_store b;
              fuse_rpn_store b
            end
          end;
          SInt
      | sh ->
          box_top b sh;
          emit b (if keep then IAssignFieldIB ty else IAssignFieldIBPop ty);
          SBox)
  | LvFieldF (oe, s, m) -> (
      compile_expr_box b oe;
      emit b (ILocFieldF (s, m));
      match compile_expr b rhs with
      | SBox ->
          emit b (if keep then IAssignFieldFB ty else IAssignFieldFBPop ty);
          SBox
      | sh ->
          if sh = SInt then emit b ICastIF;
          emit b (if keep then IAssignFieldF else IAssignFieldFPop);
          SFlt)
  | _ ->
      compile_lval b lhs;
      compile_expr_box b rhs;
      emit b (IAssign ty);
      if not keep then emit b IPop;
      SBox

and compile_compound b op (lhs : rlval) rhs ty ~keep : shape =
  match lhs with
  | LvLocalI i -> (
      match compile_expr b rhs with
      | SInt ->
          let bop = bop_of_assign op and ic = ic_of_ty ty in
          emit b
            (if keep then ICompoundLocalI (bop, ic, i)
             else ICompoundLocalIPop (bop, ic, i));
          SInt
      | sh ->
          box_top b sh;
          emit b
            (if keep then ICompoundLocalB (op, ty, i, BInt)
             else ICompoundLocalBPop (op, ty, i, BInt));
          SBox)
  | LvLocalF i -> (
      match compile_expr b rhs with
      | SBox ->
          emit b
            (if keep then ICompoundLocalB (op, ty, i, BFlt)
             else ICompoundLocalBPop (op, ty, i, BFlt));
          SBox
      | sh ->
          (* float-bank compound: [arith] converts an int rhs with
             [as_float] before the float operation *)
          if sh = SInt then emit b ICastIF;
          let bop = bop_of_assign op in
          emit b
            (if keep then ICompoundLocalF (bop, i)
             else ICompoundLocalFPop (bop, i));
          SFlt)
  | LvFieldI (oe, s, m) -> (
      compile_expr_box b oe;
      emit b (ILocFieldI (s, m));
      match compile_expr b rhs with
      | SInt ->
          let bop = bop_of_assign op and ic = ic_of_ty ty in
          emit b
            (if keep then ICompoundFieldI (bop, ic)
             else ICompoundFieldIPop (bop, ic));
          SInt
      | sh ->
          box_top b sh;
          emit b
            (if keep then ICompoundFieldB (op, ty, BInt)
             else ICompoundFieldBPop (op, ty, BInt));
          SBox)
  | LvFieldF (oe, s, m) -> (
      compile_expr_box b oe;
      emit b (ILocFieldF (s, m));
      match compile_expr b rhs with
      | SBox ->
          emit b
            (if keep then ICompoundFieldB (op, ty, BFlt)
             else ICompoundFieldBPop (op, ty, BFlt));
          SBox
      | sh ->
          if sh = SInt then emit b ICastIF;
          let bop = bop_of_assign op in
          emit b
            (if keep then ICompoundFieldF bop else ICompoundFieldFPop bop);
          SFlt)
  | _ ->
      compile_lval b lhs;
      compile_expr_box b rhs;
      emit b (ICompound (op, ty));
      if not keep then emit b IPop;
      SBox

and compile_incdec b w fx (lv : rlval) ~keep : shape =
  match lv with
  | LvLocal i ->
      if keep then emit b (IIncDecLocal (w, fx, i))
      else emit b (IIncDecLocalPop (w, i));
      SBox
  | LvLocalI i ->
      if keep then emit b (IIncDecLocalI (w, fx, i))
      else emit b (IIncDecLocalPopI (w, i));
      SInt
  | LvLocalF i ->
      if keep then emit b (IIncDecLocalF (w, fx, i))
      else emit b (IIncDecLocalPopF (w, i));
      SFlt
  | LvFieldI (oe, s, m) ->
      compile_expr_box b oe;
      emit b (ILocFieldI (s, m));
      if keep then emit b (IIncDecFieldI (w, fx))
      else emit b (IIncDecFieldIPop w);
      SInt
  | LvFieldF (oe, s, m) ->
      compile_expr_box b oe;
      emit b (ILocFieldF (s, m));
      if keep then emit b (IIncDecFieldF (w, fx))
      else emit b (IIncDecFieldFPop w);
      SFlt
  | _ ->
      compile_lval b lv;
      emit b (IIncDec (w, fx));
      if not keep then emit b IPop;
      SBox

and compile_lval b (lv : rlval) =
  match lv with
  | LvLocal i -> emit b (ILocLocal i)
  | LvLocalRef i -> emit b (ILocLocalRef i)
  | LvGlobal i -> emit b (ILocGlobal i)
  | LvStatic i -> emit b (ILocStatic i)
  | LvField (oe, slots, m) ->
      compile_expr_box b oe;
      emit b (ILocField (slots, m))
  | LvLocalI _ | LvLocalF _ | LvFieldI _ | LvFieldF _ ->
      (* unreachable from well-banked IR: resolve demotes every
         address-taken or reference-bound slot to the boxed bank, and
         the typed store/compound/incdec paths intercept the rest. The
         tree engine would fail at [ptr_of_loc] with this message. *)
      emit b (IRaise "cannot take the address of an unboxed slot")
  | LvDeref a ->
      compile_expr_box b a;
      emit b ILocDeref
  | LvIndex (a, i) ->
      compile_expr_box b a;
      compile_expr_box b i;
      emit b ILocIndex
  | LvMemPtrDeref (recv, pm) ->
      compile_expr_box b recv;
      emit b IAsObj;
      compile_expr_box b pm;
      emit b ILocMemPtr
  | LvInvalid msg -> emit b (IRaise msg)

and compile_arg b (a : arg_mode) =
  match a with
  | AVal e -> compile_expr_box b e
  | ARefScalar lv ->
      compile_lval b lv;
      emit b ILocToPtr
  | ARefObj e ->
      compile_expr_box b e;
      emit b IObjToPtr

and compile_args b (args : arg_mode array) = Array.iter (compile_arg b) args

and compile_call b (c : rcall) =
  match c with
  | RBuiltin (bi, args) ->
      Array.iter (compile_expr_box b) args;
      emit b (IBuiltin (bi, Array.length args))
  | RCallFunc { cf_func; cf_args } ->
      compile_args b cf_args;
      emit b (ICallFunc (cf_func, Array.length cf_args))
  | RCallMethod { cm_recv; cm_arrow; cm_func; cm_args } ->
      compile_expr_box b cm_recv;
      compile_args b cm_args;
      emit b
        (ICallMethod
           { m_func = cm_func; m_argc = Array.length cm_args; m_arrow = cm_arrow })
  | RCallVirtual { cv_recv; cv_name; cv_table; cv_args } ->
      compile_expr_box b cv_recv;
      compile_args b cv_args;
      emit b
        (ICallVirtual
           { v_name = cv_name; v_table = cv_table; v_argc = Array.length cv_args })
  | RCallFunPtr { fp_fn; fp_args } ->
      compile_expr_box b fp_fn;
      compile_args b fp_args;
      emit b (ICallFunPtr (Array.length fp_args))

and compile_decl b (d : rdecl) =
  match d with
  | DScalar { d_slot; d_ty } -> emit b (IDeclScalar (d_slot, d_ty))
  | DScalarI d_slot -> emit b (IDeclScalarI d_slot)
  | DScalarF d_slot -> emit b (IDeclScalarF d_slot)
  | DStackArrObj { d_slot; d_cid; d_cls; d_ctor; d_len } ->
      emit b
        (IDeclStackArr
           {
             ds_slot = d_slot;
             ds_cid = d_cid;
             ds_cls = d_cls;
             ds_ctor = d_ctor;
             ds_len = d_len;
           })
  | DExpr { d_slot; d_coerce; d_init } ->
      compile_expr_box b d_init;
      emit b (IStoreLocalPop (d_slot, d_coerce))
  | DExprI { d_slot; d_coerce; d_init } -> (
      match compile_expr b d_init with
      | SInt ->
          emit b (IStoreLocalPopI (ic_of_ty d_coerce, d_slot));
          fuse_tfield_idx_store b
      | sh ->
          box_top b sh;
          emit_store_ib_pop b d_coerce d_slot)
  | DExprF { d_slot; d_coerce; d_init } -> (
      match compile_expr b d_init with
      | SBox -> emit b (IStoreLocalFBPop (d_coerce, d_slot))
      | sh ->
          if sh = SInt then emit b ICastIF;
          emit b (IStoreLocalPopF d_slot))
  | DRefExpr { d_slot; d_init; d_lv } ->
      (* the initializer is evaluated for its value first, then again as
         a location, exactly as the tree engine did *)
      compile_expr_box b d_init;
      emit b IPop;
      compile_lval b d_lv;
      emit b ILocToPtr;
      emit b (IStoreRawPop d_slot)
  | DCtor { d_slot; d_cid; d_cls; d_ctor; d_args } ->
      compile_args b d_args;
      emit b
        (IDeclCtor
           {
             dc_slot = d_slot;
             dc_cid = d_cid;
             dc_cls = d_cls;
             dc_ctor = d_ctor;
             dc_argc = Array.length d_args;
           })
  | DFail msg -> emit b (IRaise msg)

(* An expression in statement position: its value is dropped, so route
   stores/compounds/incdecs to their pop forms directly (the direct
   forms keep the statement-level superinstruction fusions reachable). *)
(* Compile a condition in branch context: fall through when [c] is
   true, jump via the returned patch sites when it is false. A typed
   [&&] chain becomes cascaded branch-falses instead of a materialized
   boolean: each arm short-circuits straight to the join, and every
   comparison lands adjacent to its own branch, where
   [emit_branch_false_i] can fuse it. Restricted to int-shaped arms so
   falsiness is exactly [= 0] on both paths. *)
and compile_cond_false b (c : rexpr) : int list =
  match c with
  | RBinary (Ast.LAnd, x, y) when shape_of x = SInt && shape_of y = SInt ->
      let jx = compile_cond_false b x in
      let jy = compile_cond_false b y in
      jx @ jy
  | _ ->
      let sh = compile_expr b c in
      [ emit_cond_false b sh ]

and compile_expr_stmt b (e : rexpr) =
  match e with
  | RAssign (lhs, rhs, ty) -> ignore (compile_assign b lhs rhs ty ~keep:false)
  | RCompound (op, lhs, rhs, ty) ->
      ignore (compile_compound b op lhs rhs ty ~keep:false)
  | RIncDec (w, fx, lv) -> ignore (compile_incdec b w fx lv ~keep:false)
  | e -> (
      match compile_expr b e with
      | SBox -> emit b IPop
      | SInt -> emit b IPopI
      | SFlt -> emit b IPopF)

and compile_stmt b (lc : loopctx option) (s : rstmt) =
  emit_tick b;
  match s with
  | RSExpr e -> compile_expr_stmt b e
  | RSDecl ds -> List.iter (compile_decl b) ds
  | RSBlock (body, destroy) ->
      if Array.length destroy = 0 then Array.iter (compile_stmt b lc) body
      else begin
        emit b (IPushScope destroy);
        b.sdepth <- b.sdepth + 1;
        b.scoped <- true;
        Array.iter (compile_stmt b lc) body;
        b.sdepth <- b.sdepth - 1;
        emit b IPopScope
      end
  | RSIf (c, t, e) -> (
      let js = compile_cond_false b c in
      compile_stmt b lc t;
      match e with
      | None -> land_patches b js
      | Some es ->
          let j2 = emit_patch b (IJump (-1)) in
          land_patches b js;
          compile_stmt b lc es;
          land_patches b [ j2 ])
  | RSWhile (c, body) ->
      let top = here b in
      let jend = compile_cond_false b c in
      let lc' = { brk = []; cont = []; base = b.sdepth } in
      compile_stmt b (Some lc') body;
      emit b (IJump top);
      List.iter (patch_to b top) lc'.cont;  (* continue re-tests the condition *)
      land_patches b (jend @ lc'.brk)
  | RSDoWhile (body, c) ->
      let top = here b in
      let lc' = { brk = []; cont = []; base = b.sdepth } in
      compile_stmt b (Some lc') body;
      land_patches b lc'.cont;  (* continue falls into the condition *)
      (match compile_expr b c with
      | SBox -> emit b (IJumpIfTrue top)
      | SInt -> emit b (IJumpIfTrueI top)
      | SFlt -> emit b (IJumpIfTrueF top));
      land_patches b lc'.brk
  | RSFor { rf_init; rf_cond; rf_step; rf_body; rf_destroy } ->
      (* the destroy scope covers init + body, as the tree engine's
         [Fun.protect] around [exec_for] did; break exits to the scope
         pop, not past it *)
      let scoped = Array.length rf_destroy > 0 in
      if scoped then begin
        emit b (IPushScope rf_destroy);
        b.sdepth <- b.sdepth + 1;
        b.scoped <- true
      end;
      Option.iter (compile_stmt b lc) rf_init;
      let top = here b in
      let jend =
        match rf_cond with Some c -> compile_cond_false b c | None -> []
      in
      let lc' = { brk = []; cont = []; base = b.sdepth } in
      compile_stmt b (Some lc') rf_body;
      land_patches b lc'.cont;
      (match rf_step with Some e -> compile_expr_stmt b e | None -> ());
      emit b (IJump top);
      land_patches b (jend @ lc'.brk);
      if scoped then begin
        b.sdepth <- b.sdepth - 1;
        emit b IPopScope
      end
  | RSReturn None -> emit b IReturnUnit
  | RSReturn (Some e) -> (
      compile_expr_box b e;
      (* [return this->f] on an int member compiles to
         [IThisFieldI; IBoxI]; fold the box and the return in *)
      match
        if run_ok b 2 then (b.code.(b.len - 2), b.code.(b.len - 1))
        else (IReturnUnit, IReturnUnit)
      with
      | IThisFieldI (s, m), IBoxI ->
          rewind b 2;
          b.od <- b.od - 1;
          emit b (IReturnThisFieldI (s, m))
      | _ -> emit b IReturn)
  | RSBreak -> (
      match lc with
      | Some l ->
          let n = b.sdepth - l.base in
          if n > 0 then emit b (IExitScopes n);
          l.brk <- emit_patch b (IJump (-1)) :: l.brk
      | None -> emit b (IRaise "break outside a loop"))
  | RSContinue -> (
      match lc with
      | Some l ->
          let n = b.sdepth - l.base in
          if n > 0 then emit b (IExitScopes n);
          l.cont <- emit_patch b (IJump (-1)) :: l.cont
      | None -> emit b (IRaise "continue outside a loop"))
  | RSDelete e ->
      compile_expr_box b e;
      emit b IDelete
  | RSEmpty -> ()

let finish (b : buf) : cbody =
  let code = Array.sub b.code 0 b.len in
  let ticks = Array.sub b.ticks 0 b.len in
  let n = Array.length code in
  (* Branch-target inlining, after all patching: a list-scan loop runs
     [guard -> (false edge) -> step -> back edge] with the step only
     *jump*-adjacent to the guard, so emit-time fusion can never see
     the pair. Replicate the step into the guard's false arm instead;
     the step's slot stays for the fall-in (then-branch) path. The tick
     and error sequence of the combined arm is the exact concatenation
     of the two instructions: the false arm runs the step's one
     pre-tick itself, and both exits re-enter the dispatch loop, which
     runs their targets' pre-ticks. *)
  Array.iteri
    (fun i ins ->
      match ins with
      | ILoadFieldCmpLocFalse (j, s, m, op, k, texit)
        when texit >= 0 && texit < n && ticks.(texit) = 1 -> (
          match code.(texit) with
          | ILoadFieldStoreJump (a, s2, m2, bdst, ty, tback) ->
              code.(i) <- IScanStep (j, s, m, op, k, a, s2, m2, bdst, ty, tback)
          | _ -> ())
      | ILoadFieldCmpLocFalseI (j, s, m, op, k, texit)
        when texit >= 0 && texit < n && ticks.(texit) = 1 -> (
          (* the typed image: an int guard member with a boxed (pointer)
             step member *)
          match code.(texit) with
          | ILoadFieldStoreJump (a, s2, m2, bdst, ty, tback) ->
              code.(i) <- IScanStepI (j, s, m, op, k, a, s2, m2, bdst, ty, tback)
          | _ -> ())
      | _ -> ())
    code;
  (* Whole scan loops: a guard [local CMP const] with no pre-tick of its
     own, immediately followed by an [IScanStep] whose back edge is the
     guard and which carries two pre-ticks (the loop body's and its
     first statement's). The loop arm runs those two ticks per
     iteration itself. *)
  Array.iteri
    (fun i ins ->
      if i + 1 < n && ticks.(i) = 0 && ticks.(i + 1) = 2 then
        match (ins, code.(i + 1)) with
        | ( IJumpLocCmpConstFalse (x, op0, v0, texit0),
            IScanStep (j, s, m, op, k, a, s2, m2, bdst, ty, tback) )
          when tback = i ->
            code.(i) <-
              ILoopScan (x, op0, v0, texit0, j, s, m, op, k, a, s2, m2, bdst, ty)
        | ( IJumpLocCmpConstFalseI (x, op0, k0, texit0),
            IScanStepI (j, s, m, op, k, a, s2, m2, bdst, ty, tback) )
          when tback = i ->
            code.(i) <-
              ILoopScanI (x, op0, k0, texit0, j, s, m, op, k, a, s2, m2, bdst, ty)
        | _ -> ())
    code;
  (* Back-edge guard inlining: a counted loop runs
     [guard -> body -> inc-and-jump-to-guard]; replicate the guard into
     the back edge so each iteration costs one dispatch less. The guard
     slot stays for the fall-in (loop entry) path. A guard at a loop
     head carries no pre-tick ([here] parks pending ticks before the
     label), which the copy relies on. *)
  Array.iteri
    (fun i ins ->
      match ins with
      | IIncDecLocalJumpI (w, k, t) when t >= 0 && t < n && ticks.(t) = 0 -> (
          match code.(t) with
          | IJumpLocFCmpFalseI (x, y, s, m, op, texit) ->
              code.(i) <-
                IIncDecJumpLocFCmpI (w, k, (x, y, s, m, op, texit), t + 1)
          | IJumpLL2FBCCmpFalseI (x, y, s, m, op1, c, op2, texit) ->
              code.(i) <-
                IIncDecJumpLL2FBCI (w, k, (x, y, s, m, op1, c, op2, texit), t + 1)
          | _ -> ())
      | _ -> ())
    code;
  {
    b_code = code;
    b_ticks = ticks;
    b_omax = b.omax + 8;  (* slack over the conservative linear estimate *)
    b_imax = (if b.iomax = 0 then 0 else b.iomax + 8);
    b_fmax = (if b.fomax = 0 then 0 else b.fomax + 8);
    b_scoped = b.scoped;
    b_id = -1;
  }

(* A statement body (function, constructor tail, destructor): falls off
   the end returning [VUnit], like the tree engine's implicit return. *)
let compile_body_stmt (s : rstmt) : cbody =
  let b = mk_buf () in
  compile_stmt b None s;
  emit b IReturnUnit;
  finish b

(* Constructor: virtual-base calls first (skipped via [kc_entry] when
   not most-derived), then direct bases, member initializers, body.
   The per-level tick is issued by the VM's [run_ctor], not in code. *)
let compile_ctor (plan : ctor_plan) : int * cbody =
  let b = mk_buf () in
  Array.iter
    (fun (bp : base_plan) ->
      compile_args b bp.bp_args;
      emit b (ICallCtor (bp.bp_ctor, Array.length bp.bp_args)))
    plan.cp_vbases;
  let entry = b.len in
  Array.iter
    (fun (bp : base_plan) ->
      compile_args b bp.bp_args;
      emit b (ICallCtor (bp.bp_ctor, Array.length bp.bp_args)))
    plan.cp_bases;
  Array.iter
    (fun fp ->
      match fp with
      | FPClass { fc_slots; fc_member; fc_cid; fc_cls; fc_ctor; fc_args } ->
          compile_args b fc_args;
          emit b
            (IInitField
               {
                 if_slots = fc_slots;
                 if_member = fc_member;
                 if_cid = fc_cid;
                 if_cls = fc_cls;
                 if_ctor = fc_ctor;
                 if_argc = Array.length fc_args;
               })
      | FPClassArr { fa_slots; fa_member; fa_cid; fa_cls; fa_ctor; fa_len } ->
          emit b
            (IInitFieldArr
               {
                 ia_slots = fa_slots;
                 ia_member = fa_member;
                 ia_cid = fa_cid;
                 ia_cls = fa_cls;
                 ia_ctor = fa_ctor;
                 ia_len = fa_len;
               })
      | FPScalar { fs_slots; fs_member; fs_bank; fs_coerce; fs_init } -> (
          (* initializer evaluated and coerced before the slot lookup,
             matching the tree engine's store order *)
          match fs_bank with
          | BBox ->
              compile_expr_box b fs_init;
              emit b
                (IInitFieldScalar
                   {
                     is_slots = fs_slots;
                     is_member = fs_member;
                     is_coerce = fs_coerce;
                   })
          | BInt -> (
              match compile_expr b fs_init with
              | SInt ->
                  emit b
                    (IInitFieldScalarI (fs_slots, fs_member, ic_of_ty fs_coerce))
              | sh ->
                  box_top b sh;
                  emit b
                    (IInitFieldScalarB (fs_slots, fs_member, fs_coerce, BInt)))
          | BFlt -> (
              match compile_expr b fs_init with
              | SBox ->
                  emit b
                    (IInitFieldScalarB (fs_slots, fs_member, fs_coerce, BFlt))
              | sh ->
                  if sh = SInt then emit b ICastIF;
                  emit b (IInitFieldScalarF (fs_slots, fs_member))))
      | FPBadInit -> emit b (IRaise "bad scalar member initializer"))
    plan.cp_fields;
  (match plan.cp_body with None -> () | Some body -> compile_stmt b None body);
  emit b IReturnUnit;
  (entry, finish b)

(* Global initializer: the bare expression (no tick — the tree engine
   evaluated these outside any statement). *)
let compile_ginit (e : rexpr) : cbody =
  let b = mk_buf () in
  compile_expr_box b e;
  emit b IReturn;
  finish b

let compile (rp : rprogram) : cprogram =
  Telemetry.Span.with_ "bytecode" @@ fun () ->
  let total = ref 0 in
  let bodies_rev = ref [] in
  let owners_rev = ref [] in
  let nbodies = ref 0 in
  (* register a compiled body: assign its id and remember its owner so
     the profiler can attribute per-pc counts back to a name *)
  let fin ~owner ?fidx (cb : cbody) =
    total := !total + Array.length cb.b_code;
    cb.b_id <- !nbodies;
    incr nbodies;
    bodies_rev := cb :: !bodies_rev;
    owners_rev := (owner, fidx) :: !owners_rev;
    cb
  in
  let cp_funcs =
    Array.mapi
      (fun fidx (rf : rfunc) ->
        let owner = Func_id.to_string rf.rf_id in
        let kind =
          match rf.rf_code with
          | CBody s -> KBody (fin ~owner ~fidx (compile_body_stmt s))
          | CCtor plan ->
              let entry, cb = compile_ctor plan in
              KCtor { kc_body = fin ~owner ~fidx cb; kc_entry = entry }
          | CDtor -> KDtor
          | CUnknown -> KUnknown
          | CUndefined -> KUndefined
          | CMissingCtor -> KMissingCtor
        in
        {
          c_id = rf.rf_id;
          c_frame = rf.rf_frame;
          c_params = rf.rf_params;
          c_kind = kind;
        })
      rp.rp_funcs
  in
  let cp_destroy =
    Array.map
      (fun (ci : class_info) ->
        let dp = ci.ci_destroy in
        {
          cd_dtor =
            Option.map
              (fun (fsize, body) ->
                ( fsize,
                  fin
                    ~owner:(Printf.sprintf "%s::~%s" ci.ci_name ci.ci_name)
                    (compile_body_stmt body) ))
              dp.dp_dtor;
          cd_fields = dp.dp_fields;
          cd_nv_bases = dp.dp_nv_bases;
          cd_vbases_rev = ci.ci_vbases_rev;
        })
      rp.rp_classes
  in
  let cp_ginit =
    Array.map
      (fun (g : rglobal) ->
        Option.map
          (fun e ->
            fin
              ~owner:(Printf.sprintf "global-init:%s" g.rg_name)
              (compile_ginit e))
          g.rg_init)
      rp.rp_globals
  in
  Telemetry.Counter.add instrs_counter !total;
  Telemetry.Counter.add bodies_counter !nbodies;
  {
    cp_rp = rp;
    cp_funcs;
    cp_destroy;
    cp_ginit;
    cp_bodies = Array.of_list (List.rev !bodies_rev);
    cp_owners = Array.of_list (List.rev !owners_rev);
  }

(* == virtual machine ========================================================== *)

type vm = {
  cp : cprogram;
  funcs : cfunc array;
  classes : class_info array;
  destroy : cdestroy array;
  profile : Profile.t;
  globals : harray;
  statics : harray;
  output : Buffer.t;
  mutable obj_counter : int;
  mutable steps : int;
  step_limit : int;
  (* nearer of [step_limit] and the next deadline checkpoint: the hot
     tick is one compare against it, everything else is cold *)
  mutable next_stop : int;
  mutable call_depth : int;
  mutable max_call_depth : int;
  call_depth_limit : int;
  heap_object_limit : int;
  (* hot-site profiler rows, or [[||]] when profiling is off: the
     dispatch loop tests emptiness once per body entry, the call path
     once per call — one predictable branch each when disabled *)
  prof_counts : int array array;
  prof_calls : int array;
}

let empty_vals : value array = [||]

(* shared sentinel: "no profiling rows for this body" *)
let no_prof_row : int array = [||]

(* Shared scope stack for bodies that never open a destroy scope
   ([b_scoped = false] implies no [IPushScope] in the code). *)
let no_scopes : int array list ref = ref []

let fresh_obj_id vm =
  let id = vm.obj_counter in
  if id >= vm.heap_object_limit then
    limit_exceeded "object limit exceeded (%d): possible runaway allocation"
      vm.heap_object_limit;
  vm.obj_counter <- id + 1;
  id

(* Reached every [deadline_check_interval] steps, or past the step
   limit — never on the per-step fast path (same scheme, and so the
   same raising step counts, as the tree engine). The steps may have
   been added in a batch (a slot's pre-ticks): the raising tick still
   leaves the count the tree engine did. *)
let[@inline never] slow_tick vm =
  if vm.steps > vm.step_limit then begin
    vm.steps <- vm.step_limit + 1;
    limit_exceeded "step limit exceeded (%d): possible non-termination"
      vm.step_limit
  end;
  check_deadline ();
  vm.next_stop <- min vm.step_limit (vm.steps + deadline_check_interval)

let[@inline] tick vm =
  vm.steps <- vm.steps + 1;
  if vm.steps > vm.next_stop then slow_tick vm

(* Locations on the operand stack are pointer values (see the
   instruction-set comment). *)
let loc_read = function
  | VPtr (PCell r) -> !r
  | VPtr (PArr (h, i)) -> h.cells.(i)
  | _ -> assert false

let loc_write l v =
  match l with
  | VPtr (PCell r) -> r := v
  | VPtr (PArr (h, i)) -> h.cells.(i) <- v
  | _ -> assert false

(* [Value.ptr_of_loc]'s arr_id = -1 re-wrap, applied when a location
   escapes as a pointer value. *)
let loc_to_ptr = function
  | VPtr (PArr (h, i)) when h.arr_id <> -1 ->
      VPtr (PArr ({ arr_id = -1; cells = h.cells }, i))
  | l -> l

let this_obj (frame : frame) : obj =
  match frame.this with Some o -> o | None -> assert false

let cmp_test_slow op va vb =
  match op with
  | Ast.Eq -> value_eq va vb
  | Ast.Ne -> not (value_eq va vb)
  | _ -> compare_test op va vb

(* Int-int is the overwhelmingly common case in every benchmark's loop
   conditions; dispatch on the operator directly instead of computing a
   three-way compare first. Semantically identical to the slow path. *)
let[@inline] cmp_test op va vb =
  match (va, vb) with
  | VInt x, VInt y -> (
      match op with
      | Ast.Lt -> x < y
      | Ast.Gt -> x > y
      | Ast.Le -> x <= y
      | Ast.Ge -> x >= y
      | Ast.Eq -> x = y
      | Ast.Ne -> x <> y
      | _ -> assert false)
  | _ -> cmp_test_slow op va vb

let binop_slow op va vb =
  match op with
  | Ast.Eq -> VInt (if value_eq va vb then 1 else 0)
  | Ast.Ne -> VInt (if value_eq va vb then 0 else 1)
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> compare_values op va vb
  | _ -> arith op va vb

(* Same fast path for value-producing binops; results go through the
   shared [vint] cache so loop-counter arithmetic stays off the minor
   heap. Error strings on Div/Mod match [Value.arith] exactly. *)
let[@inline] binop op va vb =
  match (va, vb) with
  | VInt x, VInt y -> (
      match op with
      | Ast.Add -> vint (x + y)
      | Ast.Sub -> vint (x - y)
      | Ast.Mul -> vint (x * y)
      | Ast.Div ->
          if y = 0 then runtime_error "division by zero" else vint (x / y)
      | Ast.Mod ->
          if y = 0 then runtime_error "modulo by zero" else vint (x mod y)
      | Ast.Lt -> if x < y then vtrue else vfalse
      | Ast.Gt -> if x > y then vtrue else vfalse
      | Ast.Le -> if x <= y then vtrue else vfalse
      | Ast.Ge -> if x >= y then vtrue else vfalse
      | Ast.Eq -> if x = y then vtrue else vfalse
      | Ast.Ne -> if x <> y then vtrue else vfalse
      | Ast.BAnd -> vint (x land y)
      | Ast.BOr -> vint (x lor y)
      | Ast.BXor -> vint (x lxor y)
      | Ast.Shl -> vint (x lsl y)
      | Ast.Shr -> vint (x asr y)
      | _ -> binop_slow op va vb)
  | _ -> binop_slow op va vb

let[@inline] incdec_new which old =
  let delta = match which with Ast.Incr -> 1 | Ast.Decr -> -1 in
  match old with
  | VInt n -> vint (n + delta)
  | VFloat f -> VFloat (f +. float_of_int delta)
  | VPtr (PArr (h, i)) -> VPtr (PArr (h, i + delta))
  | _ -> runtime_error "cannot increment this value"

(* The [a[i]] read shared by IIndex and its fused forms; [iv] is the
   already-coerced integer index. Error strings are the tree engine's. *)
let[@inline] index_read av iv =
  match av with
  | VArr h | VPtr (PArr (h, 0)) ->
      if iv < 0 || iv >= Array.length h.cells then
        runtime_error "array index %d out of bounds (size %d)" iv
          (Array.length h.cells);
      h.cells.(iv)
  | VPtr (PArr (h, off)) ->
      let j = off + iv in
      if j < 0 || j >= Array.length h.cells then
        runtime_error "array index out of bounds";
      h.cells.(j)
  | VStr s ->
      if iv < 0 || iv >= String.length s then VInt 0
      else VInt (Char.code s.[iv])
  | VNull -> runtime_error "indexing a null pointer"
  | _ -> runtime_error "indexing a non-array value"

(* ------------------------------------------------------------------ *)
(* Typed (untagged) operator semantics: the unboxed images of [binop], *)
(* [cmp_test] and [Value.arith] on operands whose tags the compiler    *)
(* already proved. Same results, same error strings, no dispatch.      *)
(* ------------------------------------------------------------------ *)

let[@inline] ibinop_i op (x : int) (y : int) : int =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div -> if y = 0 then runtime_error "division by zero" else x / y
  | Ast.Mod -> if y = 0 then runtime_error "modulo by zero" else x mod y
  | Ast.Lt -> if x < y then 1 else 0
  | Ast.Gt -> if x > y then 1 else 0
  | Ast.Le -> if x <= y then 1 else 0
  | Ast.Ge -> if x >= y then 1 else 0
  | Ast.Eq -> if x = y then 1 else 0
  | Ast.Ne -> if x <> y then 1 else 0
  | Ast.BAnd -> x land y
  | Ast.BOr -> x lor y
  | Ast.BXor -> x lxor y
  | Ast.Shl -> x lsl y
  | Ast.Shr -> x asr y
  | Ast.LAnd | Ast.LOr -> assert false (* never emitted as a binop *)

let[@inline] icmp op (x : int) (y : int) : bool =
  match op with
  | Ast.Lt -> x < y
  | Ast.Gt -> x > y
  | Ast.Le -> x <= y
  | Ast.Ge -> x >= y
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | _ -> assert false

(* Float relationals go through [compare] (total order, nan smallest)
   and equality through IEEE [=]/[<>], exactly like [Value.compare_test]
   and [value_eq] on two [VFloat]s. *)
let[@inline] fcmp_test op (x : float) (y : float) : bool =
  match op with
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | Ast.Lt -> compare x y < 0
  | Ast.Gt -> compare x y > 0
  | Ast.Le -> compare x y <= 0
  | Ast.Ge -> compare x y >= 0
  | _ -> assert false

(* [Value.arith]'s float branch: only these four exist there. *)
let[@inline] fbinop op (x : float) (y : float) : float =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | Ast.Div ->
      if y = 0.0 then runtime_error "floating division by zero" else x /. y
  | _ -> runtime_error "invalid floating operands"

let[@inline] incdec_delta which =
  match which with Ast.Incr -> 1 | Ast.Decr -> -1

let frame_of_shape (sh : fshape) this =
  mk_frame ~ints:sh.nint ~flts:sh.nflt sh.nbox this

let rec bind_params vm frame (cf : cfunc) (src : value array) base argc =
  ignore vm;
  let n = Array.length cf.c_params in
  if n <> argc then
    runtime_error "arity mismatch calling %s" (Func_id.to_string cf.c_id);
  for i = 0 to n - 1 do
    let p = cf.c_params.(i) in
    match p.rp_bank with
    | BInt -> frame.ilocals.(p.rp_slot) <- as_int (coerce p.rp_coerce src.(base + i))
    | BFlt ->
        frame.flocals.(p.rp_slot) <- as_float (coerce p.rp_coerce src.(base + i))
    | BBox ->
        frame.locals.cells.(p.rp_slot) <-
          (if p.rp_ref then src.(base + i) (* references carry locations *)
           else coerce p.rp_coerce src.(base + i))
  done

(* Same protocol as the tree engine's [call_function]: depth guard and
   tick happen before the depth-restoring handler is installed, so a
   limit hit there leaves the depth incremented, exactly as the tree
   engine's pre-[Fun.protect] tick did. *)
and call_function vm fi ~this (src : value array) base argc : value =
  if Array.length vm.prof_calls <> 0 then
    Array.unsafe_set vm.prof_calls fi (Array.unsafe_get vm.prof_calls fi + 1);
  vm.call_depth <- vm.call_depth + 1;
  if vm.call_depth > vm.max_call_depth then
    vm.max_call_depth <- vm.call_depth;
  if vm.call_depth > vm.call_depth_limit then
    limit_exceeded "call depth limit exceeded (%d): possible runaway recursion"
      vm.call_depth_limit;
  tick vm;
  match invoke vm fi ~this src base argc with
  | v ->
      vm.call_depth <- vm.call_depth - 1;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      vm.call_depth <- vm.call_depth - 1;
      Printexc.raise_with_backtrace e bt

and invoke vm fi ~this (src : value array) base argc : value =
  let cf = vm.funcs.(fi) in
  match cf.c_kind with
  | KBody body ->
      let frame = frame_of_shape cf.c_frame this in
      bind_params vm frame cf src base argc;
      exec_code vm frame body 0
  | KCtor { kc_body; kc_entry } -> (
      match this with
      | Some o ->
          run_ctor vm o cf kc_body kc_entry ~most_derived:false src base argc;
          VUnit
      | None -> runtime_error "constructor called without an object")
  | KDtor -> (
      match this with
      | Some o ->
          destroy_complete vm o;
          VUnit
      | None -> runtime_error "destructor called without an object")
  | KMissingCtor -> (
      match this with
      | Some _ ->
          (* constructor dispatch ticked before discovering the body was
             missing, as in the tree engine *)
          tick vm;
          runtime_error "missing constructor %s" (Func_id.to_string cf.c_id)
      | None -> runtime_error "constructor called without an object")
  | KUnknown ->
      runtime_error "call to unknown function %s" (Func_id.to_string cf.c_id)
  | KUndefined ->
      runtime_error "call to undefined (external) function %s"
        (Func_id.to_string cf.c_id)

and run_ctor vm (o : obj) (cf : cfunc) kc_body kc_entry ~most_derived
    (src : value array) base argc =
  tick vm;
  let frame = frame_of_shape cf.c_frame (Some o) in
  bind_params vm frame cf src base argc;
  ignore (exec_code vm frame kc_body (if most_derived then 0 else kc_entry))

(* Constructor dispatch without the call-depth protocol: base, virtual
   base and member-subobject constructors run at the caller's depth,
   matching the tree engine's direct [run_ctor_idx]. *)
and run_ctor_idx vm (o : obj) fi ~most_derived (src : value array) base argc =
  let cf = vm.funcs.(fi) in
  match cf.c_kind with
  | KCtor { kc_body; kc_entry } ->
      run_ctor vm o cf kc_body kc_entry ~most_derived src base argc
  | _ ->
      tick vm;
      runtime_error "missing constructor %s" (Func_id.to_string cf.c_id)

and construct_raw vm cid cls ctor (src : value array) base argc : obj =
  let id = fresh_obj_id vm in
  let o = new_obj_of vm.classes cid cls id in
  run_ctor_idx vm o ctor ~most_derived:true src base argc;
  o

and construct_journalled vm ~kind cid cls ctor (src : value array) base argc :
    obj =
  let id = fresh_obj_id vm in
  let o = new_obj_of vm.classes cid cls id in
  Profile.record_alloc vm.profile ~id ~kind ~cls ~count:1;
  run_ctor_idx vm o ctor ~most_derived:true src base argc;
  o

and destroy_complete vm (o : obj) = destroy_from vm o o.obj_cid ~most_derived:true

and destroy_from vm (o : obj) cid ~most_derived =
  tick vm;
  if cid >= 0 then begin
    let cd = vm.destroy.(cid) in
    (match cd.cd_dtor with
    | Some (fsize, body) ->
        let frame = frame_of_shape fsize (Some o) in
        ignore (exec_code vm frame body 0)
    | None -> ());
    (* member subobjects, reverse declaration order *)
    Array.iter
      (fun df ->
        match df with
        | DFClass slots -> (
            let s = if o.obj_cid >= 0 then slots.(o.obj_cid) else -1 in
            if s >= 0 then
              match o.fields.cells.(s) with
              | VObj sub -> destroy_complete vm sub
              | _ -> ())
        | DFClassArr slots -> (
            let s = if o.obj_cid >= 0 then slots.(o.obj_cid) else -1 in
            if s >= 0 then
              match o.fields.cells.(s) with
              | VArr h ->
                  Array.iter
                    (function VObj sub -> destroy_complete vm sub | _ -> ())
                    h.cells
              | _ -> ()))
      cd.cd_fields;
    Array.iter
      (fun bcid -> destroy_from vm o bcid ~most_derived:false)
      cd.cd_nv_bases;
    if most_derived then
      Array.iter
        (fun vcid -> destroy_from vm o vcid ~most_derived:false)
        cd.cd_vbases_rev
  end

and destroy_slots vm (locals : value array) (slots : int array) =
  Array.iter
    (fun s ->
      match locals.(s) with
      | VObj o ->
          destroy_complete vm o;
          Profile.record_free vm.profile o.obj_id;
          locals.(s) <- VUnit
      | VArr h when h.arr_id >= 0 ->
          Array.iter
            (function VObj o -> destroy_complete vm o | _ -> ())
            h.cells;
          Profile.record_free vm.profile h.arr_id;
          locals.(s) <- VUnit
      | _ -> ())
    slots

(* Unwind this invocation's destroy scopes around an in-flight
   exception: each scope's destructor failure replaces the exception
   with [Fun.Finally_raised], exactly as the nested [Fun.protect]s of
   the tree engine did. *)
and unwind_exn vm (locals : value array) scopes e =
  match !scopes with
  | [] -> e
  | slots :: rest -> (
      scopes := rest;
      match destroy_slots vm locals slots with
      | () -> unwind_exn vm locals scopes e
      | exception fe -> unwind_exn vm locals scopes (Fun.Finally_raised fe))

(* Scope destruction on the normal return path; a failure surfaces as
   [Finally_raised] and the in-loop handler unwinds the rest. *)
and ret_unwind vm (locals : value array) scopes =
  match !scopes with
  | [] -> ()
  | slots :: rest ->
      scopes := rest;
      (try destroy_slots vm locals slots
       with fe -> raise (Fun.Finally_raised fe));
      ret_unwind vm locals scopes

and exec_builtin vm (ost : value array) base (b : builtin) argc : unit =
  match (b, argc) with
  | BPrintInt, 1 ->
      Buffer.add_string vm.output (string_of_int (as_int ost.(base)))
  | BPrintChar, 1 ->
      Buffer.add_char vm.output (Char.chr (as_int ost.(base) land 255))
  | BPrintFloat, 1 ->
      Buffer.add_string vm.output (Printf.sprintf "%g" (as_float ost.(base)))
  | BPrintStr, 1 -> (
      match ost.(base) with
      | VStr s -> Buffer.add_string vm.output s
      | VNull -> runtime_error "print_str(NULL)"
      | _ -> runtime_error "bad builtin call")
  | BPrintNl, 0 -> Buffer.add_char vm.output '\n'
  | BFree, 1 -> (
      match ost.(base) with
      | VPtr (PObj o) -> Profile.record_free vm.profile o.obj_id
      | VPtr (PArr (h, _)) when h.arr_id >= 0 ->
          Profile.record_free vm.profile h.arr_id
      | VNull | VPtr _ -> ()
      | _ -> runtime_error "free of a non-pointer")
  | BAbort, 0 -> raise Abort_called
  | _ -> runtime_error "bad builtin call"

and exec_code vm (frame : frame) (b : cbody) (start : int) : value =
  let code = b.b_code in
  let ticks = b.b_ticks in
  let ost = if b.b_omax > 0 then Array.make b.b_omax VUnit else empty_vals in
  (* Untagged operand stacks: int and float operands live here, never
     boxed; purely generic bodies keep both bounds at 0 and share the
     empty arrays. *)
  let ist = if b.b_imax > 0 then Array.make b.b_imax 0 else no_ints in
  let fstk = if b.b_fmax > 0 then Array.make b.b_fmax 0.0 else no_floats in
  let locals = frame.locals.cells in
  let ilocals = frame.ilocals in
  let flocals = frame.flocals in
  let scopes = if b.b_scoped then ref [] else no_scopes in
  let prow =
    if Array.length vm.prof_counts = 0 || b.b_id < 0 then no_prof_row
    else Array.unsafe_get vm.prof_counts b.b_id
  in
  let profiling = prow != no_prof_row in
  let rec loop pc sp isp fsp : value =
    if profiling then
      Array.unsafe_set prow pc (Array.unsafe_get prow pc + 1);
    let n = Array.unsafe_get ticks pc in
    if n <> 0 then begin
      vm.steps <- vm.steps + n;
      if vm.steps > vm.next_stop then slow_tick vm
    end;
    match Array.unsafe_get code pc with
    | ITick -> loop (pc + 1) sp isp fsp
    | IConst v ->
        ost.(sp) <- v;
        loop (pc + 1) (sp + 1) isp fsp
    | ILoad i ->
        ost.(sp) <- Array.unsafe_get locals i;
        loop (pc + 1) (sp + 1) isp fsp
    | ILoadRef i ->
        ost.(sp) <-
          (match Array.unsafe_get locals i with
          | VPtr (PCell r) -> !r
          | VPtr (PArr (h, j)) -> h.cells.(j)
          | VPtr (PObj o) -> VObj o
          | v -> v);
        loop (pc + 1) (sp + 1) isp fsp
    | IGlobal i ->
        ost.(sp) <- vm.globals.cells.(i);
        loop (pc + 1) (sp + 1) isp fsp
    | IStatic i ->
        ost.(sp) <- vm.statics.cells.(i);
        loop (pc + 1) (sp + 1) isp fsp
    | IThis ->
        ost.(sp) <-
          (match frame.this with
          | Some o -> VPtr (PObj o)
          | None -> runtime_error "'this' outside a method");
        loop (pc + 1) (sp + 1) isp fsp
    | IPop -> loop (pc + 1) (sp - 1) isp fsp
    | IUnary op ->
        ost.(sp - 1) <- unary op ost.(sp - 1);
        loop (pc + 1) sp isp fsp
    | IBinop op ->
        ost.(sp - 2) <- binop op ost.(sp - 2) ost.(sp - 1);
        loop (pc + 1) (sp - 1) isp fsp
    | IToBool ->
        ost.(sp - 1) <- (if truthy ost.(sp - 1) then vtrue else vfalse);
        loop (pc + 1) sp isp fsp
    | ICastInt ->
        (match ost.(sp - 1) with
        | VInt _ -> ()
        | v -> ost.(sp - 1) <- vint (as_int v));
        loop (pc + 1) sp isp fsp
    | ICastFloat ->
        ost.(sp - 1) <- VFloat (as_float ost.(sp - 1));
        loop (pc + 1) sp isp fsp
    | IField (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        ost.(sp - 1) <- o.fields.cells.(field_slot o slots m);
        loop (pc + 1) sp isp fsp
    | IDeref ->
        ost.(sp - 1) <-
          (match ost.(sp - 1) with
          | VPtr (PCell r) -> !r
          | VPtr (PObj o) -> VObj o
          | VPtr (PArr (h, i)) ->
              if i < 0 || i >= Array.length h.cells then
                runtime_error "pointer dereference out of bounds";
              h.cells.(i)
          | VNull -> runtime_error "null pointer dereference"
          | VStr s ->
              if String.length s > 0 then VInt (Char.code s.[0]) else VInt 0
          | _ -> runtime_error "dereference of a non-pointer");
        loop (pc + 1) sp isp fsp
    | IIndex ->
        let iv = as_int ost.(sp - 1) in
        ost.(sp - 2) <-
          (match ost.(sp - 2) with
          | VArr h | VPtr (PArr (h, 0)) ->
              if iv < 0 || iv >= Array.length h.cells then
                runtime_error "array index %d out of bounds (size %d)" iv
                  (Array.length h.cells);
              h.cells.(iv)
          | VPtr (PArr (h, off)) ->
              let j = off + iv in
              if j < 0 || j >= Array.length h.cells then
                runtime_error "array index out of bounds";
              h.cells.(j)
          | VStr s ->
              if iv < 0 || iv >= String.length s then VInt 0
              else VInt (Char.code s.[iv])
          | VNull -> runtime_error "indexing a null pointer"
          | _ -> runtime_error "indexing a non-array value");
        loop (pc + 1) (sp - 1) isp fsp
    | IAsObj ->
        ost.(sp - 1) <- VObj (as_obj ost.(sp - 1));
        loop (pc + 1) sp isp fsp
    | IMemPtrDeref ->
        let o = as_obj ost.(sp - 2) in
        ost.(sp - 2) <-
          (match ost.(sp - 1) with
          | VMemPtr m -> o.fields.cells.(memptr_slot_of vm.classes o m)
          | VNull -> runtime_error "null member pointer dereference"
          | _ -> runtime_error ".*/->* with a non-member-pointer");
        loop (pc + 1) (sp - 1) isp fsp
    | IAddrOf ->
        let l = ost.(sp - 1) in
        ost.(sp - 1) <-
          (* taking the address of an embedded object yields an object
             pointer, not a cell pointer *)
          (match loc_read l with VObj o -> VPtr (PObj o) | _ -> loc_to_ptr l);
        loop (pc + 1) sp isp fsp
    | ILocLocal i ->
        ost.(sp) <- VPtr (PArr (frame.locals, i));
        loop (pc + 1) (sp + 1) isp fsp
    | ILocLocalRef i ->
        ost.(sp) <-
          (match Array.unsafe_get locals i with
          | VPtr (PCell _) as p -> p
          | VPtr (PArr _) as p -> p
          | _ -> VPtr (PArr (frame.locals, i)));
        loop (pc + 1) (sp + 1) isp fsp
    | ILocGlobal i ->
        ost.(sp) <- VPtr (PArr (vm.globals, i));
        loop (pc + 1) (sp + 1) isp fsp
    | ILocStatic i ->
        ost.(sp) <- VPtr (PArr (vm.statics, i));
        loop (pc + 1) (sp + 1) isp fsp
    | ILocField (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        ost.(sp - 1) <- VPtr (PArr (o.fields, field_slot o slots m));
        loop (pc + 1) sp isp fsp
    | ILocDeref ->
        ost.(sp - 1) <-
          (match ost.(sp - 1) with
          | VPtr (PCell _) as p -> p
          | VPtr (PArr _) as p -> p
          | VPtr (PObj _) ->
              runtime_error "cannot assign whole objects through a pointer"
          | VNull -> runtime_error "null pointer dereference"
          | _ -> runtime_error "dereference of a non-pointer");
        loop (pc + 1) sp isp fsp
    | ILocIndex ->
        let iv = as_int ost.(sp - 1) in
        ost.(sp - 2) <-
          (match ost.(sp - 2) with
          | VArr h -> VPtr (PArr (h, iv))
          | VPtr (PArr (h, off)) -> VPtr (PArr (h, off + iv))
          | _ -> runtime_error "indexing a non-array value");
        loop (pc + 1) (sp - 1) isp fsp
    | ILocMemPtr ->
        let o = as_obj ost.(sp - 2) in
        ost.(sp - 2) <-
          (match ost.(sp - 1) with
          | VMemPtr m -> VPtr (PArr (o.fields, memptr_slot_of vm.classes o m))
          | _ -> runtime_error ".*/->* with a non-member-pointer");
        loop (pc + 1) (sp - 1) isp fsp
    | ILocToPtr ->
        ost.(sp - 1) <- loc_to_ptr ost.(sp - 1);
        loop (pc + 1) sp isp fsp
    | IObjToPtr ->
        (match ost.(sp - 1) with
        | VObj o -> ost.(sp - 1) <- VPtr (PObj o)
        | _ -> ());
        loop (pc + 1) sp isp fsp
    | IAssign ty ->
        let v = coerce ty ost.(sp - 1) in
        loc_write ost.(sp - 2) v;
        ost.(sp - 2) <- v;
        loop (pc + 1) (sp - 1) isp fsp
    | ICompound (op, ty) ->
        let l = ost.(sp - 2) in
        let v = compound_op op (loc_read l) ost.(sp - 1) ty in
        loc_write l v;
        ost.(sp - 2) <- v;
        loop (pc + 1) (sp - 1) isp fsp
    | IIncDec (which, fix) ->
        let l = ost.(sp - 1) in
        let old = loc_read l in
        let nv = incdec_new which old in
        loc_write l nv;
        ost.(sp - 1) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
        loop (pc + 1) sp isp fsp
    | IStoreLocal (i, ty) ->
        let v = coerce ty ost.(sp - 1) in
        Array.unsafe_set locals i v;
        ost.(sp - 1) <- v;
        loop (pc + 1) sp isp fsp
    | IStoreLocalPop (i, ty) ->
        Array.unsafe_set locals i (coerce ty ost.(sp - 1));
        loop (pc + 1) (sp - 1) isp fsp
    | IStoreRawPop i ->
        Array.unsafe_set locals i ost.(sp - 1);
        loop (pc + 1) (sp - 1) isp fsp
    | IIncDecLocal (which, fix, i) ->
        let old = Array.unsafe_get locals i in
        let nv = incdec_new which old in
        Array.unsafe_set locals i nv;
        ost.(sp) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
        loop (pc + 1) (sp + 1) isp fsp
    | IIncDecLocalPop (which, i) ->
        Array.unsafe_set locals i (incdec_new which (Array.unsafe_get locals i));
        loop (pc + 1) sp isp fsp
    | IJump t -> loop t sp isp fsp
    | IJumpIfFalse t ->
        if truthy ost.(sp - 1) then loop (pc + 1) (sp - 1) isp fsp
        else loop t (sp - 1) isp fsp
    | IJumpIfTrue t ->
        if truthy ost.(sp - 1) then loop t (sp - 1) isp fsp
        else loop (pc + 1) (sp - 1) isp fsp
    | IJumpCmpFalse (op, t) ->
        if cmp_test op ost.(sp - 2) ost.(sp - 1) then loop (pc + 1) (sp - 2) isp fsp
        else loop t (sp - 2) isp fsp
    | IAndFalse t ->
        if truthy ost.(sp - 1) then loop (pc + 1) (sp - 1) isp fsp
        else begin
          ost.(sp - 1) <- VInt 0;
          loop t sp isp fsp
        end
    | IOrTrue t ->
        if truthy ost.(sp - 1) then begin
          ost.(sp - 1) <- VInt 1;
          loop t sp isp fsp
        end
        else loop (pc + 1) (sp - 1) isp fsp
    | IPushScope slots ->
        scopes := slots :: !scopes;
        loop (pc + 1) sp isp fsp
    | IPopScope ->
        (match !scopes with
        | slots :: rest ->
            scopes := rest;
            (try destroy_slots vm locals slots
             with fe -> raise (Fun.Finally_raised fe))
        | [] -> assert false);
        loop (pc + 1) sp isp fsp
    | IExitScopes n ->
        for _ = 1 to n do
          match !scopes with
          | slots :: rest ->
              scopes := rest;
              (try destroy_slots vm locals slots
               with fe -> raise (Fun.Finally_raised fe))
          | [] -> assert false
        done;
        loop (pc + 1) sp isp fsp
    | IReturn ->
        let v = ost.(sp - 1) in
        if b.b_scoped then ret_unwind vm locals scopes;
        v
    | IReturnUnit ->
        if b.b_scoped then ret_unwind vm locals scopes;
        VUnit
    | IRaise msg -> runtime_error "%s" msg
    | INewObj { n_cid; n_cls; n_ctor; n_argc } ->
        let base = sp - n_argc in
        let o =
          construct_journalled vm ~kind:Profile.Heap n_cid n_cls n_ctor ost base
            n_argc
        in
        ost.(base) <- VPtr (PObj o);
        loop (pc + 1) (base + 1) isp fsp
    | INewScalar (bytes, ty) ->
        ignore (Profile.record_scalar_alloc vm.profile ~bytes);
        ost.(sp) <- VPtr (PArr ({ arr_id = -1; cells = [| default_value ty |] }, 0));
        loop (pc + 1) (sp + 1) isp fsp
    | INewArrObj { w_cid; w_cls; w_ctor } ->
        let n = as_int ost.(sp - 1) in
        if n < 0 then runtime_error "negative array size in new[]";
        let id = fresh_obj_id vm in
        Profile.record_alloc vm.profile ~id ~kind:Profile.HeapArray ~cls:w_cls
          ~count:n;
        let cells =
          Array.init n (fun _ ->
              VObj (construct_raw vm w_cid w_cls w_ctor empty_vals 0 0))
        in
        ost.(sp - 1) <- VPtr (PArr ({ arr_id = id; cells }, 0));
        loop (pc + 1) sp isp fsp
    | INewArrScalar (ty, elem_bytes) ->
        let n = as_int ost.(sp - 1) in
        if n < 0 then runtime_error "negative array size in new[]";
        let id = Profile.record_scalar_alloc vm.profile ~bytes:(n * elem_bytes) in
        let cells = Array.init n (fun _ -> default_value ty) in
        ost.(sp - 1) <- VPtr (PArr ({ arr_id = id; cells }, 0));
        loop (pc + 1) sp isp fsp
    | IDelete ->
        (match ost.(sp - 1) with
        | VNull -> ()
        | VPtr (PObj o) ->
            destroy_complete vm o;
            Profile.record_free vm.profile o.obj_id
        | VPtr (PArr (h, _)) ->
            Array.iter
              (function VObj o -> destroy_complete vm o | _ -> ())
              h.cells;
            if h.arr_id >= 0 then Profile.record_free vm.profile h.arr_id
        | _ -> runtime_error "delete of a non-pointer value");
        loop (pc + 1) (sp - 1) isp fsp
    | IDeclScalar (slot, ty) ->
        Array.unsafe_set locals slot (default_value ty);
        loop (pc + 1) sp isp fsp
    | IDeclStackArr { ds_slot; ds_cid; ds_cls; ds_ctor; ds_len } ->
        let id = fresh_obj_id vm in
        Profile.record_alloc vm.profile ~id ~kind:Profile.Stack ~cls:ds_cls
          ~count:ds_len;
        let cells =
          Array.init ds_len (fun _ ->
              VObj (construct_raw vm ds_cid ds_cls ds_ctor empty_vals 0 0))
        in
        locals.(ds_slot) <- VArr { arr_id = id; cells };
        loop (pc + 1) sp isp fsp
    | IDeclCtor { dc_slot; dc_cid; dc_cls; dc_ctor; dc_argc } ->
        let base = sp - dc_argc in
        let o =
          construct_journalled vm ~kind:Profile.Stack dc_cid dc_cls dc_ctor ost
            base dc_argc
        in
        locals.(dc_slot) <- VObj o;
        loop (pc + 1) base isp fsp
    | IBuiltin (bi, argc) ->
        let base = sp - argc in
        exec_builtin vm ost base bi argc;
        ost.(base) <- VUnit;
        loop (pc + 1) (base + 1) isp fsp
    | ICallFunc (fi, argc) ->
        let base = sp - argc in
        let v = call_function vm fi ~this:None ost base argc in
        ost.(base) <- v;
        loop (pc + 1) (base + 1) isp fsp
    | ICallMethod { m_func; m_argc; m_arrow } ->
        let base = sp - m_argc in
        let v =
          match ost.(base - 1) with
          | VNull when m_arrow -> runtime_error "method call on null pointer"
          | VObj o | VPtr (PObj o) ->
              call_function vm m_func ~this:(Some o) ost base m_argc
          | _ ->
              (* static member function *)
              call_function vm m_func ~this:None ost base m_argc
        in
        ost.(base - 1) <- v;
        loop (pc + 1) base isp fsp
    | ICallVirtual { v_name; v_table; v_argc } ->
        let base = sp - v_argc in
        let v =
          match ost.(base - 1) with
          | VObj o | VPtr (PObj o) ->
              let fi = if o.obj_cid >= 0 then v_table.(o.obj_cid) else -1 in
              if fi >= 0 then call_function vm fi ~this:(Some o) ost base v_argc
              else
                runtime_error "no virtual target for %s::%s" o.obj_class v_name
          | VNull -> runtime_error "virtual call on null pointer"
          | _ -> runtime_error "virtual call on a non-object"
        in
        ost.(base - 1) <- v;
        loop (pc + 1) base isp fsp
    | ICallFunPtr argc ->
        let base = sp - argc in
        let v =
          match ost.(base - 1) with
          | VFunPtr id -> (
              let this =
                match id with Func_id.FMethod _ -> frame.this | _ -> None
              in
              match Hashtbl.find_opt vm.cp.cp_rp.rp_func_idx id with
              | Some fi -> call_function vm fi ~this ost base argc
              | None ->
                  runtime_error "call to unknown function %s"
                    (Func_id.to_string id))
          | VNull -> runtime_error "call through a null function pointer"
          | _ -> runtime_error "call through a non-function value"
        in
        ost.(base - 1) <- v;
        loop (pc + 1) base isp fsp
    | ICallCtor (fi, argc) ->
        let base = sp - argc in
        run_ctor_idx vm (this_obj frame) fi ~most_derived:false ost base argc;
        loop (pc + 1) base isp fsp
    | IInitField { if_slots; if_member; if_cid; if_cls; if_ctor; if_argc } ->
        let base = sp - if_argc in
        let o = this_obj frame in
        let sub = construct_raw vm if_cid if_cls if_ctor ost base if_argc in
        o.fields.cells.(field_slot o if_slots if_member) <- VObj sub;
        loop (pc + 1) base isp fsp
    | IInitFieldArr { ia_slots; ia_member; ia_cid; ia_cls; ia_ctor; ia_len } ->
        let o = this_obj frame in
        let cells =
          Array.init ia_len (fun _ ->
              VObj (construct_raw vm ia_cid ia_cls ia_ctor empty_vals 0 0))
        in
        o.fields.cells.(field_slot o ia_slots ia_member) <-
          VArr { arr_id = -1; cells };
        loop (pc + 1) sp isp fsp
    | IInitFieldScalar { is_slots; is_member; is_coerce } ->
        let v = coerce is_coerce ost.(sp - 1) in
        let o = this_obj frame in
        o.fields.cells.(field_slot o is_slots is_member) <- v;
        loop (pc + 1) (sp - 1) isp fsp
    (* superinstructions: each arm is the exact concatenation of its
       parts' arms — same evaluation order, ticks and errors *)
    | ILoadField (i, slots, m) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- o.fields.cells.(field_slot o slots m);
        loop (pc + 1) (sp + 1) isp fsp
    | IThisField (slots, m) ->
        (match frame.this with
        | Some o -> ost.(sp) <- o.fields.cells.(field_slot o slots m)
        | None -> runtime_error "'this' outside a method");
        loop (pc + 1) (sp + 1) isp fsp
    | IIndexField (slots, m) ->
        let iv = as_int ost.(sp - 1) in
        let elem =
          match ost.(sp - 2) with
          | VArr h | VPtr (PArr (h, 0)) ->
              if iv < 0 || iv >= Array.length h.cells then
                runtime_error "array index %d out of bounds (size %d)" iv
                  (Array.length h.cells);
              h.cells.(iv)
          | VPtr (PArr (h, off)) ->
              let j = off + iv in
              if j < 0 || j >= Array.length h.cells then
                runtime_error "array index out of bounds";
              h.cells.(j)
          | VStr s ->
              if iv < 0 || iv >= String.length s then VInt 0
              else VInt (Char.code s.[iv])
          | VNull -> runtime_error "indexing a null pointer"
          | _ -> runtime_error "indexing a non-array value"
        in
        let o = as_obj elem in
        ost.(sp - 2) <- o.fields.cells.(field_slot o slots m);
        loop (pc + 1) (sp - 1) isp fsp
    | ILoadIndex i ->
        let iv = as_int (Array.get locals i) in
        ost.(sp - 1) <-
          (match ost.(sp - 1) with
          | VArr h | VPtr (PArr (h, 0)) ->
              if iv < 0 || iv >= Array.length h.cells then
                runtime_error "array index %d out of bounds (size %d)" iv
                  (Array.length h.cells);
              h.cells.(iv)
          | VPtr (PArr (h, off)) ->
              let j = off + iv in
              if j < 0 || j >= Array.length h.cells then
                runtime_error "array index out of bounds";
              h.cells.(j)
          | VStr s ->
              if iv < 0 || iv >= String.length s then VInt 0
              else VInt (Char.code s.[iv])
          | VNull -> runtime_error "indexing a null pointer"
          | _ -> runtime_error "indexing a non-array value");
        loop (pc + 1) sp isp fsp
    | ILoadLocField (i, slots, m) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- VPtr (PArr (o.fields, field_slot o slots m));
        loop (pc + 1) (sp + 1) isp fsp
    | IFieldBinop (slots, m, op) ->
        let o = as_obj ost.(sp - 1) in
        ost.(sp - 2) <-
          binop op ost.(sp - 2) o.fields.cells.(field_slot o slots m);
        loop (pc + 1) (sp - 1) isp fsp
    | ILoadFieldBinop (i, slots, m, op) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp - 1) <-
          binop op ost.(sp - 1) o.fields.cells.(field_slot o slots m);
        loop (pc + 1) sp isp fsp
    | IBinopConst (op, v) ->
        ost.(sp - 1) <- binop op ost.(sp - 1) v;
        loop (pc + 1) sp isp fsp
    | IAssignPop ty ->
        let v = coerce ty ost.(sp - 1) in
        loc_write ost.(sp - 2) v;
        loop (pc + 1) (sp - 2) isp fsp
    | IStoreLocalPopJump (i, ty, t) ->
        Array.set locals i (coerce ty ost.(sp - 1));
        loop t (sp - 1) isp fsp
    | IIncDecLocalJump (w, i, t) ->
        Array.set locals i (incdec_new w (Array.get locals i));
        loop t sp isp fsp
    | IJumpCmpConstFalse (op, v, t) ->
        if cmp_test op ost.(sp - 1) v then loop (pc + 1) (sp - 1) isp fsp
        else loop t (sp - 1) isp fsp
    | IJumpLocCmpConstFalse (i, op, v, t) ->
        if cmp_test op (Array.get locals i) v then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IJumpLocCmpFalse (op, i, t) ->
        if cmp_test op ost.(sp - 1) (Array.get locals i) then
          loop (pc + 1) (sp - 1) isp fsp
        else loop t (sp - 1) isp fsp
    | IJumpLoc2CmpFalse (op, x, y, t) ->
        if cmp_test op (Array.get locals x) (Array.get locals y) then
          loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | ILoadFieldStore (i, slots, m, j, ty) ->
        let o = as_obj (Array.get locals i) in
        Array.set locals j (coerce ty o.fields.cells.(field_slot o slots m));
        loop (pc + 1) sp isp fsp
    | ILoadFieldStoreJump (i, slots, m, j, ty, t) ->
        let o = as_obj (Array.get locals i) in
        Array.set locals j (coerce ty o.fields.cells.(field_slot o slots m));
        loop t sp isp fsp
    | ILoadBinopConst (i, op, v) ->
        ost.(sp) <- binop op (Array.get locals i) v;
        loop (pc + 1) (sp + 1) isp fsp
    | ILoadFieldBC (i, slots, m, op, v) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- binop op o.fields.cells.(field_slot o slots m) v;
        loop (pc + 1) (sp + 1) isp fsp
    | ILoadFieldLoadBC (i, slots, m, j, op, v) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- o.fields.cells.(field_slot o slots m);
        ost.(sp + 1) <- binop op (Array.get locals j) v;
        loop (pc + 1) (sp + 2) isp fsp
    | IFieldIdxField (i, slots, m, j, op, v, s2, m2) ->
        let o = as_obj (Array.get locals i) in
        let av = o.fields.cells.(field_slot o slots m) in
        let iv = as_int (binop op (Array.get locals j) v) in
        let eo = as_obj (index_read av iv) in
        ost.(sp) <- eo.fields.cells.(field_slot eo s2 m2);
        loop (pc + 1) (sp + 1) isp fsp
    | ILoadFieldBinop2 (i, slots, m, op1, op2) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp - 2) <-
          binop op2 ost.(sp - 2)
            (binop op1 ost.(sp - 1) o.fields.cells.(field_slot o slots m));
        loop (pc + 1) (sp - 1) isp fsp
    | IBinopAssignPop (op, ty) ->
        let v = coerce ty (binop op ost.(sp - 2) ost.(sp - 1)) in
        loc_write ost.(sp - 3) v;
        loop (pc + 1) (sp - 3) isp fsp
    | ILoadLoadField (i, j, slots, m) ->
        ost.(sp) <- Array.get locals i;
        let o = as_obj (Array.get locals j) in
        ost.(sp + 1) <- o.fields.cells.(field_slot o slots m);
        loop (pc + 1) (sp + 2) isp fsp
    | ILocFieldLoadField (s1, m1, j, s2, m2) ->
        let o = as_obj ost.(sp - 1) in
        ost.(sp - 1) <- VPtr (PArr (o.fields, field_slot o s1 m1));
        let o2 = as_obj (Array.get locals j) in
        ost.(sp) <- o2.fields.cells.(field_slot o2 s2 m2);
        loop (pc + 1) (sp + 1) isp fsp
    | IStoreTLoadField (i, ty, j, slots, m) ->
        Array.set locals i (coerce ty ost.(sp - 1));
        tick vm;
        let o = as_obj (Array.get locals j) in
        ost.(sp - 1) <- o.fields.cells.(field_slot o slots m);
        loop (pc + 1) sp isp fsp
    | ILoadFieldIndex (a, slots, m, i) ->
        let o = as_obj (Array.get locals a) in
        let av = o.fields.cells.(field_slot o slots m) in
        let iv = as_int (Array.get locals i) in
        ost.(sp) <- index_read av iv;
        loop (pc + 1) (sp + 1) isp fsp
    | ILoadFieldIndexStore (a, slots, m, i, x, ty) ->
        let o = as_obj (Array.get locals a) in
        let av = o.fields.cells.(field_slot o slots m) in
        let iv = as_int (Array.get locals i) in
        Array.set locals x (coerce ty (index_read av iv));
        loop (pc + 1) sp isp fsp
    | ILoadFieldCmpLocFalse (j, slots, m, op, n, t) ->
        let o = as_obj (Array.get locals j) in
        if cmp_test op o.fields.cells.(field_slot o slots m) (Array.get locals n)
        then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IBinopConstAndFalse (op, v, t) ->
        if truthy (binop op ost.(sp - 1) v) then loop (pc + 1) (sp - 1) isp fsp
        else begin
          ost.(sp - 1) <- VInt 0;
          loop t sp isp fsp
        end
    | ILoadFieldBinopJumpFalse (i, slots, m, op, t) ->
        let o = as_obj (Array.get locals i) in
        if truthy (binop op ost.(sp - 1) o.fields.cells.(field_slot o slots m))
        then loop (pc + 1) (sp - 1) isp fsp
        else loop t (sp - 1) isp fsp
    | IJumpBCCmpFalse (op1, v, op2, t) ->
        let rhs = binop op1 ost.(sp - 1) v in
        if cmp_test op2 ost.(sp - 2) rhs then loop (pc + 1) (sp - 2) isp fsp
        else loop t (sp - 2) isp fsp
    | IBinopLoadField (op, j, slots, m) ->
        ost.(sp - 2) <- binop op ost.(sp - 2) ost.(sp - 1);
        let o = as_obj (Array.get locals j) in
        ost.(sp - 1) <- o.fields.cells.(field_slot o slots m);
        loop (pc + 1) sp isp fsp
    | IBinop2 (op1, op2) ->
        ost.(sp - 3) <-
          binop op2 ost.(sp - 3) (binop op1 ost.(sp - 2) ost.(sp - 1));
        loop (pc + 1) (sp - 2) isp fsp
    | IThisFieldBinop (slots, m, op) ->
        (match frame.this with
        | Some o ->
            ost.(sp - 1) <-
              binop op ost.(sp - 1) o.fields.cells.(field_slot o slots m)
        | None -> runtime_error "'this' outside a method");
        loop (pc + 1) sp isp fsp
    | IFieldBinop2AssignPop (i, slots, m, op1, op2, ty) ->
        let o = as_obj (Array.get locals i) in
        let v =
          coerce ty
            (binop op2 ost.(sp - 2)
               (binop op1 ost.(sp - 1) o.fields.cells.(field_slot o slots m)))
        in
        loc_write ost.(sp - 3) v;
        loop (pc + 1) (sp - 3) isp fsp
    | IBinop2AssignPop (op1, op2, ty) ->
        let v =
          coerce ty
            (binop op2 ost.(sp - 3) (binop op1 ost.(sp - 2) ost.(sp - 1)))
        in
        loc_write ost.(sp - 4) v;
        loop (pc + 1) (sp - 4) isp fsp
    | ILoadLocFieldLoadField (i, slots, m, j, s2, m2) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- VPtr (PArr (o.fields, field_slot o slots m));
        let o2 = as_obj (Array.get locals j) in
        ost.(sp + 1) <- o2.fields.cells.(field_slot o2 s2 m2);
        loop (pc + 1) (sp + 2) isp fsp
    | ILoadFieldBCAndFalse (i, slots, m, op, v, t) ->
        let o = as_obj (Array.get locals i) in
        if truthy (binop op o.fields.cells.(field_slot o slots m) v) then
          loop (pc + 1) sp isp fsp
        else begin
          ost.(sp) <- VInt 0;
          loop t (sp + 1) isp fsp
        end
    | IJumpLocFCmpFalse (i, j, slots, m, op, t) ->
        let o = as_obj (Array.get locals j) in
        if cmp_test op (Array.get locals i) o.fields.cells.(field_slot o slots m)
        then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IJumpLL2FBCCmpFalse (i, j, slots, m, op1, v, op2, t) ->
        let o = as_obj (Array.get locals j) in
        let rhs = binop op1 o.fields.cells.(field_slot o slots m) v in
        if cmp_test op2 (Array.get locals i) rhs then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IScanStep (j, slots, m, op, n, a, s2, m2, bdst, ty, tback) ->
        let o = as_obj (Array.get locals j) in
        if cmp_test op o.fields.cells.(field_slot o slots m) (Array.get locals n)
        then loop (pc + 1) sp isp fsp
        else begin
          tick vm;
          let o2 = as_obj (Array.get locals a) in
          Array.set locals bdst
            (coerce ty o2.fields.cells.(field_slot o2 s2 m2));
          loop tback sp isp fsp
        end
    | ILoopScan (x, op0, v0, texit0, j, slots, m, op, n, a, s2, m2, bdst, ty)
      ->
        let rec scan () =
          if cmp_test op0 (Array.get locals x) v0 then begin
            tick vm;
            tick vm;
            let o = as_obj (Array.get locals j) in
            if
              cmp_test op
                o.fields.cells.(field_slot o slots m)
                (Array.get locals n)
            then -1
            else begin
              tick vm;
              let o2 = as_obj (Array.get locals a) in
              Array.set locals bdst
                (coerce ty o2.fields.cells.(field_slot o2 s2 m2));
              (* profiled count = guard evaluations, one per iteration:
                 the whole loop runs in this single dispatch, and a
                 count of 1 would hide exactly the hot loops the
                 profiler exists to surface *)
              if profiling then
                Array.unsafe_set prow pc (Array.unsafe_get prow pc + 1);
              scan ()
            end
          end
          else texit0
        in
        let t = scan () in
        if t >= 0 then loop t sp isp fsp else loop (pc + 2) sp isp fsp
    (* -- typed (untagged) arms: pushes, bridges ---------------------- *)
    | IConstI n ->
        ist.(isp) <- n;
        loop (pc + 1) sp (isp + 1) fsp
    | IConstF f ->
        fstk.(fsp) <- f;
        loop (pc + 1) sp isp (fsp + 1)
    | ILoadI i ->
        ist.(isp) <- Array.unsafe_get ilocals i;
        loop (pc + 1) sp (isp + 1) fsp
    | ILoadF i ->
        fstk.(fsp) <- Array.unsafe_get flocals i;
        loop (pc + 1) sp isp (fsp + 1)
    | IFieldI (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        ist.(isp) <- o.ifields.(field_slot o slots m);
        loop (pc + 1) (sp - 1) (isp + 1) fsp
    | IFieldF (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        fstk.(fsp) <- o.ffields.(field_slot o slots m);
        loop (pc + 1) (sp - 1) isp (fsp + 1)
    | IIndexI ->
        ost.(sp - 1) <- index_read ost.(sp - 1) ist.(isp - 1);
        loop (pc + 1) sp (isp - 1) fsp
    | IBoxI ->
        ost.(sp) <- vint ist.(isp - 1);
        loop (pc + 1) (sp + 1) (isp - 1) fsp
    | IBoxF ->
        ost.(sp) <- VFloat fstk.(fsp - 1);
        loop (pc + 1) (sp + 1) isp (fsp - 1)
    | IBoxIU ->
        ost.(sp) <- ost.(sp - 1);
        ost.(sp - 1) <- vint ist.(isp - 1);
        loop (pc + 1) (sp + 1) (isp - 1) fsp
    | IBoxFU ->
        ost.(sp) <- ost.(sp - 1);
        ost.(sp - 1) <- VFloat fstk.(fsp - 1);
        loop (pc + 1) (sp + 1) isp (fsp - 1)
    | IPopI -> loop (pc + 1) sp (isp - 1) fsp
    | IPopF -> loop (pc + 1) sp isp (fsp - 1)
    | ILoadIB i ->
        ost.(sp) <- vint (Array.unsafe_get ilocals i);
        loop (pc + 1) (sp + 1) isp fsp
    | ILoadFieldIB (i, slots, m) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- vint o.ifields.(field_slot o slots m);
        loop (pc + 1) (sp + 1) isp fsp
    | ICastFI ->
        ist.(isp) <- int_of_float fstk.(fsp - 1);
        loop (pc + 1) sp (isp + 1) (fsp - 1)
    | ICastIF ->
        fstk.(fsp) <- float_of_int ist.(isp - 1);
        loop (pc + 1) sp (isp - 1) (fsp + 1)
    (* -- typed operators --------------------------------------------- *)
    | IUnaryI op ->
        (match op with
        | Ast.Neg -> ist.(isp - 1) <- -ist.(isp - 1)
        | Ast.Not -> ist.(isp - 1) <- (if ist.(isp - 1) = 0 then 1 else 0)
        | Ast.BitNot -> ist.(isp - 1) <- lnot ist.(isp - 1)
        | Ast.UPlus -> ());
        loop (pc + 1) sp isp fsp
    | INegF ->
        fstk.(fsp - 1) <- -.fstk.(fsp - 1);
        loop (pc + 1) sp isp fsp
    | INotF ->
        (* [truthy (VFloat f)] is [f <> 0.0], so nan is truthy: [!nan]
           must be 0, which [= 0.0] gives for free *)
        ist.(isp) <- (if fstk.(fsp - 1) = 0.0 then 1 else 0);
        loop (pc + 1) sp (isp + 1) (fsp - 1)
    | IToBoolI ->
        ist.(isp - 1) <- (if ist.(isp - 1) <> 0 then 1 else 0);
        loop (pc + 1) sp isp fsp
    | IBinopII op ->
        ist.(isp - 2) <- ibinop_i op ist.(isp - 2) ist.(isp - 1);
        loop (pc + 1) sp (isp - 1) fsp
    | IArithFF op ->
        fstk.(fsp - 2) <- fbinop op fstk.(fsp - 2) fstk.(fsp - 1);
        loop (pc + 1) sp isp (fsp - 1)
    | ICmpFF op ->
        ist.(isp) <- (if fcmp_test op fstk.(fsp - 2) fstk.(fsp - 1) then 1 else 0);
        loop (pc + 1) sp (isp + 1) (fsp - 2)
    | IArithIF op ->
        fstk.(fsp - 1) <- fbinop op (float_of_int ist.(isp - 1)) fstk.(fsp - 1);
        loop (pc + 1) sp (isp - 1) fsp
    | IArithFI op ->
        fstk.(fsp - 1) <- fbinop op fstk.(fsp - 1) (float_of_int ist.(isp - 1));
        loop (pc + 1) sp (isp - 1) fsp
    | ICmpIF op ->
        ist.(isp - 1) <-
          (if fcmp_test op (float_of_int ist.(isp - 1)) fstk.(fsp - 1) then 1
           else 0);
        loop (pc + 1) sp isp (fsp - 1)
    | ICmpFI op ->
        ist.(isp - 1) <-
          (if fcmp_test op fstk.(fsp - 1) (float_of_int ist.(isp - 1)) then 1
           else 0);
        loop (pc + 1) sp isp (fsp - 1)
    (* -- typed local stores ------------------------------------------ *)
    | IStoreLocalI (ic, i) ->
        let v = apply_ic ic ist.(isp - 1) in
        Array.unsafe_set ilocals i v;
        ist.(isp - 1) <- v;
        loop (pc + 1) sp isp fsp
    | IStoreLocalPopI (ic, i) ->
        Array.unsafe_set ilocals i (apply_ic ic ist.(isp - 1));
        loop (pc + 1) sp (isp - 1) fsp
    | IStoreLocalF i ->
        Array.unsafe_set flocals i fstk.(fsp - 1);
        loop (pc + 1) sp isp fsp
    | IStoreLocalPopF i ->
        Array.unsafe_set flocals i fstk.(fsp - 1);
        loop (pc + 1) sp isp (fsp - 1)
    | IStoreLocalIB (ty, i) ->
        let v = coerce ty ost.(sp - 1) in
        Array.unsafe_set ilocals i (as_int v);
        ost.(sp - 1) <- v;
        loop (pc + 1) sp isp fsp
    | IStoreLocalIBPop (ty, i) ->
        Array.unsafe_set ilocals i (as_int (coerce ty ost.(sp - 1)));
        loop (pc + 1) (sp - 1) isp fsp
    | IStoreLocalFB (ty, i) ->
        let v = coerce ty ost.(sp - 1) in
        Array.unsafe_set flocals i (as_float v);
        ost.(sp - 1) <- v;
        loop (pc + 1) sp isp fsp
    | IStoreLocalFBPop (ty, i) ->
        Array.unsafe_set flocals i (as_float (coerce ty ost.(sp - 1)));
        loop (pc + 1) (sp - 1) isp fsp
    | IIncDecLocalI (which, fix, i) ->
        let old = Array.unsafe_get ilocals i in
        let nv = old + incdec_delta which in
        Array.unsafe_set ilocals i nv;
        ist.(isp) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
        loop (pc + 1) sp (isp + 1) fsp
    | IIncDecLocalPopI (which, i) ->
        Array.unsafe_set ilocals i
          (Array.unsafe_get ilocals i + incdec_delta which);
        loop (pc + 1) sp isp fsp
    | IIncDecLocalF (which, fix, i) ->
        let old = Array.unsafe_get flocals i in
        let nv = old +. float_of_int (incdec_delta which) in
        Array.unsafe_set flocals i nv;
        fstk.(fsp) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
        loop (pc + 1) sp isp (fsp + 1)
    | IIncDecLocalPopF (which, i) ->
        Array.unsafe_set flocals i
          (Array.unsafe_get flocals i +. float_of_int (incdec_delta which));
        loop (pc + 1) sp isp fsp
    | ICompoundLocalI (op, ic, i) ->
        let v =
          apply_ic ic (ibinop_i op (Array.unsafe_get ilocals i) ist.(isp - 1))
        in
        Array.unsafe_set ilocals i v;
        ist.(isp - 1) <- v;
        loop (pc + 1) sp isp fsp
    | ICompoundLocalIPop (op, ic, i) ->
        Array.unsafe_set ilocals i
          (apply_ic ic (ibinop_i op (Array.unsafe_get ilocals i) ist.(isp - 1)));
        loop (pc + 1) sp (isp - 1) fsp
    | ICompoundLocalF (op, i) ->
        let v = fbinop op (Array.unsafe_get flocals i) fstk.(fsp - 1) in
        Array.unsafe_set flocals i v;
        fstk.(fsp - 1) <- v;
        loop (pc + 1) sp isp fsp
    | ICompoundLocalFPop (op, i) ->
        Array.unsafe_set flocals i
          (fbinop op (Array.unsafe_get flocals i) fstk.(fsp - 1));
        loop (pc + 1) sp isp (fsp - 1)
    | ICompoundLocalB (aop, ty, i, bk) ->
        let old =
          match bk with
          | BInt -> vint ilocals.(i)
          | BFlt -> VFloat flocals.(i)
          | BBox -> assert false
        in
        let v = compound_op aop old ost.(sp - 1) ty in
        (match bk with
        | BInt -> ilocals.(i) <- as_int v
        | BFlt -> flocals.(i) <- as_float v
        | BBox -> assert false);
        ost.(sp - 1) <- v;
        loop (pc + 1) sp isp fsp
    | ICompoundLocalBPop (aop, ty, i, bk) ->
        let old =
          match bk with
          | BInt -> vint ilocals.(i)
          | BFlt -> VFloat flocals.(i)
          | BBox -> assert false
        in
        let v = compound_op aop old ost.(sp - 1) ty in
        (match bk with
        | BInt -> ilocals.(i) <- as_int v
        | BFlt -> flocals.(i) <- as_float v
        | BBox -> assert false);
        loop (pc + 1) (sp - 1) isp fsp
    (* -- typed member lvalues ---------------------------------------- *)
    | ILocFieldI (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        ist.(isp) <- field_slot o slots m;
        ost.(sp - 1) <- VObj o;
        loop (pc + 1) sp (isp + 1) fsp
    | ILocFieldF (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        ist.(isp) <- field_slot o slots m;
        ost.(sp - 1) <- VObj o;
        loop (pc + 1) sp (isp + 1) fsp
    | IAssignFieldI ic ->
        let v = apply_ic ic ist.(isp - 1) in
        let o = as_obj ost.(sp - 1) in
        o.ifields.(ist.(isp - 2)) <- v;
        ist.(isp - 2) <- v;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | IAssignFieldIPop ic ->
        let o = as_obj ost.(sp - 1) in
        o.ifields.(ist.(isp - 2)) <- apply_ic ic ist.(isp - 1);
        loop (pc + 1) (sp - 1) (isp - 2) fsp
    | IAssignFieldF ->
        let o = as_obj ost.(sp - 1) in
        o.ffields.(ist.(isp - 1)) <- fstk.(fsp - 1);
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | IAssignFieldFPop ->
        let o = as_obj ost.(sp - 1) in
        o.ffields.(ist.(isp - 1)) <- fstk.(fsp - 1);
        loop (pc + 1) (sp - 1) (isp - 1) (fsp - 1)
    | IAssignFieldIB ty ->
        let v = coerce ty ost.(sp - 1) in
        let o = as_obj ost.(sp - 2) in
        o.ifields.(ist.(isp - 1)) <- as_int v;
        ost.(sp - 2) <- v;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | IAssignFieldIBPop ty ->
        let o = as_obj ost.(sp - 2) in
        o.ifields.(ist.(isp - 1)) <- as_int (coerce ty ost.(sp - 1));
        loop (pc + 1) (sp - 2) (isp - 1) fsp
    | IAssignFieldFB ty ->
        let v = coerce ty ost.(sp - 1) in
        let o = as_obj ost.(sp - 2) in
        o.ffields.(ist.(isp - 1)) <- as_float v;
        ost.(sp - 2) <- v;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | IAssignFieldFBPop ty ->
        let o = as_obj ost.(sp - 2) in
        o.ffields.(ist.(isp - 1)) <- as_float (coerce ty ost.(sp - 1));
        loop (pc + 1) (sp - 2) (isp - 1) fsp
    | ICompoundFieldI (op, ic) ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 2) in
        let v = apply_ic ic (ibinop_i op o.ifields.(s) ist.(isp - 1)) in
        o.ifields.(s) <- v;
        ist.(isp - 2) <- v;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | ICompoundFieldIPop (op, ic) ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 2) in
        o.ifields.(s) <- apply_ic ic (ibinop_i op o.ifields.(s) ist.(isp - 1));
        loop (pc + 1) (sp - 1) (isp - 2) fsp
    | ICompoundFieldF op ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 1) in
        let v = fbinop op o.ffields.(s) fstk.(fsp - 1) in
        o.ffields.(s) <- v;
        fstk.(fsp - 1) <- v;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | ICompoundFieldFPop op ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 1) in
        o.ffields.(s) <- fbinop op o.ffields.(s) fstk.(fsp - 1);
        loop (pc + 1) (sp - 1) (isp - 1) (fsp - 1)
    | ICompoundFieldB (aop, ty, bk) ->
        let o = as_obj ost.(sp - 2) in
        let s = ist.(isp - 1) in
        let old =
          match bk with
          | BInt -> vint o.ifields.(s)
          | BFlt -> VFloat o.ffields.(s)
          | BBox -> assert false
        in
        let v = compound_op aop old ost.(sp - 1) ty in
        (match bk with
        | BInt -> o.ifields.(s) <- as_int v
        | BFlt -> o.ffields.(s) <- as_float v
        | BBox -> assert false);
        ost.(sp - 2) <- v;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | ICompoundFieldBPop (aop, ty, bk) ->
        let o = as_obj ost.(sp - 2) in
        let s = ist.(isp - 1) in
        let old =
          match bk with
          | BInt -> vint o.ifields.(s)
          | BFlt -> VFloat o.ffields.(s)
          | BBox -> assert false
        in
        let v = compound_op aop old ost.(sp - 1) ty in
        (match bk with
        | BInt -> o.ifields.(s) <- as_int v
        | BFlt -> o.ffields.(s) <- as_float v
        | BBox -> assert false);
        loop (pc + 1) (sp - 2) (isp - 1) fsp
    | IIncDecFieldI (which, fix) ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 1) in
        let old = o.ifields.(s) in
        let nv = old + incdec_delta which in
        o.ifields.(s) <- nv;
        ist.(isp - 1) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
        loop (pc + 1) (sp - 1) isp fsp
    | IIncDecFieldIPop which ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 1) in
        o.ifields.(s) <- o.ifields.(s) + incdec_delta which;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | IIncDecFieldF (which, fix) ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 1) in
        let old = o.ffields.(s) in
        let nv = old +. float_of_int (incdec_delta which) in
        o.ffields.(s) <- nv;
        fstk.(fsp) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
        loop (pc + 1) (sp - 1) (isp - 1) (fsp + 1)
    | IIncDecFieldFPop which ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 1) in
        o.ffields.(s) <- o.ffields.(s) +. float_of_int (incdec_delta which);
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    (* -- typed declarations / ctor member initializers ---------------- *)
    | IDeclScalarI i ->
        Array.unsafe_set ilocals i 0;
        loop (pc + 1) sp isp fsp
    | IDeclScalarF i ->
        Array.unsafe_set flocals i 0.0;
        loop (pc + 1) sp isp fsp
    | IInitFieldScalarI (slots, m, ic) ->
        let o = this_obj frame in
        o.ifields.(field_slot o slots m) <- apply_ic ic ist.(isp - 1);
        loop (pc + 1) sp (isp - 1) fsp
    | IInitFieldScalarF (slots, m) ->
        let o = this_obj frame in
        o.ffields.(field_slot o slots m) <- fstk.(fsp - 1);
        loop (pc + 1) sp isp (fsp - 1)
    | IInitFieldScalarB (slots, m, ty, bk) ->
        let v = coerce ty ost.(sp - 1) in
        let o = this_obj frame in
        let s = field_slot o slots m in
        (match bk with
        | BInt -> o.ifields.(s) <- as_int v
        | BFlt -> o.ffields.(s) <- as_float v
        | BBox -> assert false);
        loop (pc + 1) (sp - 1) isp fsp
    (* -- typed control ------------------------------------------------ *)
    | IJumpIfFalseI t ->
        if ist.(isp - 1) <> 0 then loop (pc + 1) sp (isp - 1) fsp
        else loop t sp (isp - 1) fsp
    | IJumpIfTrueI t ->
        if ist.(isp - 1) <> 0 then loop t sp (isp - 1) fsp
        else loop (pc + 1) sp (isp - 1) fsp
    | IJumpIfFalseF t ->
        if fstk.(fsp - 1) <> 0.0 then loop (pc + 1) sp isp (fsp - 1)
        else loop t sp isp (fsp - 1)
    | IJumpIfTrueF t ->
        if fstk.(fsp - 1) <> 0.0 then loop t sp isp (fsp - 1)
        else loop (pc + 1) sp isp (fsp - 1)
    | IAndFalseI t ->
        if ist.(isp - 1) <> 0 then loop (pc + 1) sp (isp - 1) fsp
        else begin
          ist.(isp - 1) <- 0;
          loop t sp isp fsp
        end
    | IOrTrueI t ->
        if ist.(isp - 1) <> 0 then begin
          ist.(isp - 1) <- 1;
          loop t sp isp fsp
        end
        else loop (pc + 1) sp (isp - 1) fsp
    | IJumpCmpFalseI (op, t) ->
        if icmp op ist.(isp - 2) ist.(isp - 1)
        then loop (pc + 1) sp (isp - 2) fsp
        else loop t sp (isp - 2) fsp
    | IJumpCmpConstFalseI (op, k, t) ->
        if icmp op ist.(isp - 1) k then loop (pc + 1) sp (isp - 1) fsp
        else loop t sp (isp - 1) fsp
    | IJumpLocCmpConstFalseI (i, op, k, t) ->
        if icmp op (Array.unsafe_get ilocals i) k then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IJumpLocCmpFalseI (op, i, t) ->
        if icmp op ist.(isp - 1) (Array.unsafe_get ilocals i)
        then loop (pc + 1) sp (isp - 1) fsp
        else loop t sp (isp - 1) fsp
    | IJumpLoc2CmpFalseI (op, x, y, t) ->
        if icmp op (Array.unsafe_get ilocals x) (Array.unsafe_get ilocals y)
        then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IJumpLocFCmpFalseI (x, y, slots, m, op, t) ->
        let o = as_obj (Array.get locals y) in
        if icmp op (Array.unsafe_get ilocals x) o.ifields.(field_slot o slots m)
        then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IJumpLocFieldBCFalseI (n, slots, m, op, k, t) ->
        let o = as_obj (Array.get locals n) in
        if ibinop_i op o.ifields.(field_slot o slots m) k <> 0
        then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IJumpThisFieldBCFalseI (slots, m, op, k, t) -> (
        match frame.this with
        | Some o ->
            if ibinop_i op o.ifields.(field_slot o slots m) k <> 0
            then loop (pc + 1) sp isp fsp
            else loop t sp isp fsp
        | None -> runtime_error "'this' outside a method")
    (* -- typed superinstructions -------------------------------------- *)
    | ILoadFieldI (i, slots, m) ->
        let o = as_obj (Array.get locals i) in
        ist.(isp) <- o.ifields.(field_slot o slots m);
        loop (pc + 1) sp (isp + 1) fsp
    | IThisFieldI (slots, m) ->
        (match frame.this with
        | Some o -> ist.(isp) <- o.ifields.(field_slot o slots m)
        | None -> runtime_error "'this' outside a method");
        loop (pc + 1) sp (isp + 1) fsp
    | IIndexFieldI (slots, m) ->
        let elem = index_read ost.(sp - 1) ist.(isp - 1) in
        let o = as_obj elem in
        ist.(isp - 1) <- o.ifields.(field_slot o slots m);
        loop (pc + 1) (sp - 1) isp fsp
    | ILoadLoadFieldI (i, j, slots, m) ->
        ist.(isp) <- Array.unsafe_get ilocals i;
        let o = as_obj (Array.get locals j) in
        ist.(isp + 1) <- o.ifields.(field_slot o slots m);
        loop (pc + 1) sp (isp + 2) fsp
    | IBinopConstI (op, k) ->
        ist.(isp - 1) <- ibinop_i op ist.(isp - 1) k;
        loop (pc + 1) sp isp fsp
    | ILoadBinopConstI (i, op, k) ->
        ist.(isp) <- ibinop_i op (Array.unsafe_get ilocals i) k;
        loop (pc + 1) sp (isp + 1) fsp
    | ILoadFieldBCI (i, slots, m, op, k) ->
        let o = as_obj (Array.get locals i) in
        ist.(isp) <- ibinop_i op o.ifields.(field_slot o slots m) k;
        loop (pc + 1) sp (isp + 1) fsp
    | ILoadFieldLoadBCI (i, slots, m, j, op, k) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- o.fields.cells.(field_slot o slots m);
        ist.(isp) <- ibinop_i op (Array.unsafe_get ilocals j) k;
        loop (pc + 1) (sp + 1) (isp + 1) fsp
    | ILoadFieldBinopI (i, slots, m, op) ->
        let o = as_obj (Array.get locals i) in
        ist.(isp - 1) <-
          ibinop_i op ist.(isp - 1) o.ifields.(field_slot o slots m);
        loop (pc + 1) sp isp fsp
    | IThisFieldBinopI (slots, m, op) ->
        (match frame.this with
        | Some o ->
            ist.(isp - 1) <-
              ibinop_i op ist.(isp - 1) o.ifields.(field_slot o slots m)
        | None -> runtime_error "'this' outside a method");
        loop (pc + 1) sp isp fsp
    | ILoadFieldBCAndFalseI (j, slots, m, op, k, t) ->
        let o = as_obj (Array.get locals j) in
        if ibinop_i op o.ifields.(field_slot o slots m) k <> 0 then
          loop (pc + 1) sp isp fsp
        else begin
          ist.(isp) <- 0;
          loop t sp (isp + 1) fsp
        end
    | IStoreLocalPopJumpI (ic, i, t) ->
        Array.unsafe_set ilocals i (apply_ic ic ist.(isp - 1));
        loop t sp (isp - 1) fsp
    | IIncDecLocalJumpI (which, i, t) ->
        Array.unsafe_set ilocals i
          (Array.unsafe_get ilocals i + incdec_delta which);
        loop t sp isp fsp
    | IFieldIdxFieldI (i, slots, m, j, op, k, s2, m2) ->
        let o = as_obj (Array.get locals i) in
        let av = o.fields.cells.(field_slot o slots m) in
        let iv = ibinop_i op (Array.unsafe_get ilocals j) k in
        let eo = as_obj (index_read av iv) in
        ist.(isp) <- eo.ifields.(field_slot eo s2 m2);
        loop (pc + 1) sp (isp + 1) fsp
    | ILoadFieldCmpLocFalseI (j, slots, m, op, n, t) ->
        let o = as_obj (Array.get locals j) in
        if icmp op o.ifields.(field_slot o slots m) (Array.unsafe_get ilocals n)
        then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | ILoadFieldBinopJumpFalseI (i, slots, m, op, t) ->
        let o = as_obj (Array.get locals i) in
        if ibinop_i op ist.(isp - 1) o.ifields.(field_slot o slots m) <> 0
        then loop (pc + 1) sp (isp - 1) fsp
        else loop t sp (isp - 1) fsp
    | IJumpBCCmpFalseI (op1, k, op2, t) ->
        let rhs = ibinop_i op1 ist.(isp - 1) k in
        if icmp op2 ist.(isp - 2) rhs then loop (pc + 1) sp (isp - 2) fsp
        else loop t sp (isp - 2) fsp
    | IJumpLL2FBCCmpFalseI (i, j, slots, m, op1, k, op2, t) ->
        let o = as_obj (Array.get locals j) in
        let rhs = ibinop_i op1 o.ifields.(field_slot o slots m) k in
        if icmp op2 (Array.unsafe_get ilocals i) rhs
        then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | ILoadIndexI i ->
        ost.(sp - 1) <- index_read ost.(sp - 1) (Array.unsafe_get ilocals i);
        loop (pc + 1) sp isp fsp
    | ILoadFieldIndexI (a, slots, m, i) ->
        let o = as_obj (Array.get locals a) in
        let av = o.fields.cells.(field_slot o slots m) in
        ost.(sp) <- index_read av (Array.unsafe_get ilocals i);
        loop (pc + 1) (sp + 1) isp fsp
    | ILoadFieldIndexStoreI (a, slots, m, i, x, ty) ->
        let o = as_obj (Array.get locals a) in
        let av = o.fields.cells.(field_slot o slots m) in
        Array.set locals x
          (coerce ty (index_read av (Array.unsafe_get ilocals i)));
        loop (pc + 1) sp isp fsp
    | ILoadBinopI (op, i) ->
        ist.(isp - 1) <- ibinop_i op ist.(isp - 1) (Array.unsafe_get ilocals i);
        loop (pc + 1) sp isp fsp
    | ILoadLoadFieldBinopI (x, y, slots, m, op) ->
        let a = Array.unsafe_get ilocals x in
        let o = as_obj (Array.get locals y) in
        ist.(isp) <- ibinop_i op a o.ifields.(field_slot o slots m);
        loop (pc + 1) sp (isp + 1) fsp
    | ILoadLocFieldI (a, slots, m) ->
        let o = as_obj (Array.get locals a) in
        ist.(isp) <- field_slot o slots m;
        ost.(sp) <- VObj o;
        loop (pc + 1) (sp + 1) (isp + 1) fsp
    | IAssignFieldLIPop (ic, i) ->
        let o = as_obj ost.(sp - 1) in
        o.ifields.(ist.(isp - 1)) <- apply_ic ic (Array.unsafe_get ilocals i);
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | IAssignFieldLFIPop (ic, j, slots, m) ->
        let o2 = as_obj (Array.get locals j) in
        let v = apply_ic ic o2.ifields.(field_slot o2 slots m) in
        let o = as_obj ost.(sp - 1) in
        o.ifields.(ist.(isp - 1)) <- v;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | IFieldStoreLI (ic, n, slots, m, i) ->
        let o = as_obj (Array.get locals n) in
        o.ifields.(field_slot o slots m) <-
          apply_ic ic (Array.unsafe_get ilocals i);
        loop (pc + 1) sp isp fsp
    | IFieldCopyII (ic, a, s1, m1, j, s2, m2) ->
        let o1 = as_obj (Array.get locals a) in
        let d = field_slot o1 s1 m1 in
        let o2 = as_obj (Array.get locals j) in
        o1.ifields.(d) <- apply_ic ic o2.ifields.(field_slot o2 s2 m2);
        loop (pc + 1) sp isp fsp
    | IThisLocFieldI (slots, m) ->
        (match frame.this with
        | Some o ->
            ist.(isp) <- field_slot o slots m;
            ost.(sp) <- VObj o
        | None -> runtime_error "'this' outside a method");
        loop (pc + 1) (sp + 1) (isp + 1) fsp
    | IAssignFieldCIPop (ic, k) ->
        let o = as_obj ost.(sp - 1) in
        o.ifields.(ist.(isp - 1)) <- apply_ic ic k;
        loop (pc + 1) (sp - 1) (isp - 1) fsp
    | IInitFieldLI (slots, m, ic, i) ->
        let o = this_obj frame in
        o.ifields.(field_slot o slots m) <-
          apply_ic ic (Array.unsafe_get ilocals i);
        loop (pc + 1) sp isp fsp
    | IInitFieldConstI (slots, m, ic, k) ->
        let o = this_obj frame in
        o.ifields.(field_slot o slots m) <- apply_ic ic k;
        loop (pc + 1) sp isp fsp
    | IInitFieldsI inits ->
        let o = this_obj frame in
        Array.iter
          (fun f ->
            match f with
            | FInitL (slots, m, ic, i) ->
                o.ifields.(field_slot o slots m) <-
                  apply_ic ic (Array.unsafe_get ilocals i)
            | FInitC (slots, m, ic, k) ->
                o.ifields.(field_slot o slots m) <- apply_ic ic k)
          inits;
        loop (pc + 1) sp isp fsp
    | IThisIdxFieldStoreI (s1, m1, ix, s2, m2, ic, rhs) ->
        (match frame.this with
        | Some o ->
            (* destination resolves fully before the rhs, matching the
               unfused evaluation order (and its error order) *)
            let av = o.fields.cells.(field_slot o s1 m1) in
            let idx =
              match ix with
              | IxLocal i -> Array.unsafe_get ilocals i
              | IxLocField (j, s, m) ->
                  let oj = as_obj (Array.get locals j) in
                  oj.ifields.(field_slot oj s m)
            in
            let o2 = as_obj (index_read av idx) in
            let d = field_slot o2 s2 m2 in
            let v =
              match rhs with
              | RConst k -> k
              | RLocal i -> Array.unsafe_get ilocals i
              | RThisIdxField (s4, m4, ix2, s6, m6, op, k) ->
                  let av2 = o.fields.cells.(field_slot o s4 m4) in
                  let idx2 =
                    match ix2 with
                    | IxLocal i -> Array.unsafe_get ilocals i
                    | IxLocField (j, s, m) ->
                        let oj = as_obj (Array.get locals j) in
                        oj.ifields.(field_slot oj s m)
                  in
                  let o3 = as_obj (index_read av2 idx2) in
                  ibinop_i op o3.ifields.(field_slot o3 s6 m6) k
            in
            o2.ifields.(d) <- apply_ic ic v
        | None -> runtime_error "'this' outside a method");
        loop (pc + 1) sp isp fsp
    | ITLFIndexIStoreJumpFBCI ((a, s0, m0, i0, x0, ty0), (n, s, m, op, k), t) ->
        let o = as_obj (Array.get locals a) in
        let av = o.fields.cells.(field_slot o s0 m0) in
        Array.set locals x0
          (coerce ty0 (index_read av (Array.unsafe_get ilocals i0)));
        tick vm;
        let o2 = as_obj (Array.get locals n) in
        if ibinop_i op o2.ifields.(field_slot o2 s m) k <> 0
        then loop (pc + 1) sp isp fsp
        else loop t sp isp fsp
    | IRpnStoreI (dst, ops, ic) ->
        (* destination resolves first, then the rpn leaves left to
           right — the unfused statement's evaluation and error order.
           The int stack above [isp] is free scratch: the collapsed run
           was stack-neutral, so the recorded bound still covers it. *)
        let o, d =
          match dst with
          | DLocField (a, s, m) ->
              let o = as_obj (Array.get locals a) in
              (o, field_slot o s m)
          | DFieldIdx (a, s, m, i, s2, m2) ->
              let oa = as_obj (Array.get locals a) in
              let av = oa.fields.cells.(field_slot oa s m) in
              let o = as_obj (index_read av (Array.unsafe_get ilocals i)) in
              (o, field_slot o s2 m2)
          | DFieldLocField (i, s, m, s2, m2) ->
              let oi = as_obj (Array.get locals i) in
              let o = as_obj oi.fields.cells.(field_slot oi s m) in
              (o, field_slot o s2 m2)
        in
        let top =
          Array.fold_left
            (fun p r ->
              match r with
              | RpConst k ->
                  ist.(p) <- k;
                  p + 1
              | RpLocal i ->
                  ist.(p) <- Array.unsafe_get ilocals i;
                  p + 1
              | RpLoadField (j, s, m) ->
                  let oj = as_obj (Array.get locals j) in
                  ist.(p) <- oj.ifields.(field_slot oj s m);
                  p + 1
              | RpThisField (s, m) -> (
                  match frame.this with
                  | Some t ->
                      ist.(p) <- t.ifields.(field_slot t s m);
                      p + 1
                  | None -> runtime_error "'this' outside a method")
              | RpFieldIdxField (i, s, m, j, op, k, s2, m2) ->
                  let oi = as_obj (Array.get locals i) in
                  let av = oi.fields.cells.(field_slot oi s m) in
                  let iv = ibinop_i op (Array.unsafe_get ilocals j) k in
                  let eo = as_obj (index_read av iv) in
                  ist.(p) <- eo.ifields.(field_slot eo s2 m2);
                  p + 1
              | RpFieldField (j, s, m, s2, m2) ->
                  let oj = as_obj (Array.get locals j) in
                  let eo = as_obj oj.fields.cells.(field_slot oj s m) in
                  ist.(p) <- eo.ifields.(field_slot eo s2 m2);
                  p + 1
              | RpBinop op ->
                  ist.(p - 2) <- ibinop_i op ist.(p - 2) ist.(p - 1);
                  p - 1
              | RpBinopConst (op, k) ->
                  ist.(p - 1) <- ibinop_i op ist.(p - 1) k;
                  p)
            isp ops
        in
        o.ifields.(d) <- apply_ic ic ist.(top - 1);
        loop (pc + 1) sp isp fsp
    | IBinopConstCastStoreI (op, v, ty, i) ->
        let r = binop op ost.(sp - 1) v in
        let r = match r with VInt _ -> r | x -> vint (as_int x) in
        Array.unsafe_set ilocals i (as_int (coerce ty r));
        loop (pc + 1) (sp - 1) isp fsp
    | ILoadIBn idxs ->
        let k = Array.length idxs in
        for j = 0 to k - 1 do
          ost.(sp + j) <-
            vint (Array.unsafe_get ilocals (Array.unsafe_get idxs j))
        done;
        loop (pc + 1) (sp + k) isp fsp
    | IThisCallM f ->
        let o =
          match frame.this with
          | Some o -> o
          | None -> runtime_error "'this' outside a method"
        in
        ost.(sp) <- call_function vm f ~this:(Some o) ost (sp + 1) 0;
        loop (pc + 1) (sp + 1) isp fsp
    | IThisCallMStoreI (f, op, v, ty, i) ->
        let o =
          match frame.this with
          | Some o -> o
          | None -> runtime_error "'this' outside a method"
        in
        let r = binop op (call_function vm f ~this:(Some o) ost (sp + 1) 0) v in
        let r = match r with VInt _ -> r | x -> vint (as_int x) in
        Array.unsafe_set ilocals i (as_int (coerce ty r));
        loop (pc + 1) sp isp fsp
    | IIncDecJumpLocFCmpI (w, n, (x, y, slots, m, op, texit), tb) ->
        Array.unsafe_set ilocals n
          (Array.unsafe_get ilocals n + incdec_delta w);
        let o = as_obj (Array.get locals y) in
        if icmp op (Array.unsafe_get ilocals x) o.ifields.(field_slot o slots m)
        then loop tb sp isp fsp
        else loop texit sp isp fsp
    | IIncDecJumpLL2FBCI (w, n, (x, y, slots, m, op1, k, op2, texit), tb)
      ->
        Array.unsafe_set ilocals n
          (Array.unsafe_get ilocals n + incdec_delta w);
        let o = as_obj (Array.get locals y) in
        let rhs = ibinop_i op1 o.ifields.(field_slot o slots m) k in
        if icmp op2 (Array.unsafe_get ilocals x) rhs then loop tb sp isp fsp
        else loop texit sp isp fsp
    | ITLFIStoreFieldCopyII ((a, s, m, i, x, ty), (ic, a2, s1, m1, j, s2, m2))
      ->
        let o = as_obj (Array.get locals a) in
        let av = o.fields.cells.(field_slot o s m) in
        Array.set locals x
          (coerce ty (index_read av (Array.unsafe_get ilocals i)));
        tick vm;
        let o1 = as_obj (Array.get locals a2) in
        let d = field_slot o1 s1 m1 in
        let o2 = as_obj (Array.get locals j) in
        o1.ifields.(d) <- apply_ic ic o2.ifields.(field_slot o2 s2 m2);
        loop (pc + 1) sp isp fsp
    | IThisFieldIdxFStoreI (s, m, j, s2, m2, s3, m3, ic, i) ->
        let av =
          match frame.this with
          | Some o -> o.fields.cells.(field_slot o s m)
          | None -> runtime_error "'this' outside a method"
        in
        let oj = as_obj (Array.get locals j) in
        let idx = oj.ifields.(field_slot oj s2 m2) in
        let eo = as_obj (index_read av idx) in
        Array.unsafe_set ilocals i (apply_ic ic eo.ifields.(field_slot eo s3 m3));
        loop (pc + 1) sp isp fsp
    | IThisXAssignI (sd, md, ss, ms, xf, ic) ->
        (match frame.this with
        | Some o ->
            let d = field_slot o sd md in
            let v = o.ifields.(field_slot o ss ms) in
            let v =
              match xf with
              | XBc3 (o1, k1, o2, k2, o3, k3) ->
                  ibinop_i o3 (ibinop_i o2 (ibinop_i o1 v k1) k2) k3
              | XUn op -> (
                  match op with
                  | Ast.Neg -> -v
                  | Ast.Not -> if v = 0 then 1 else 0
                  | Ast.BitNot -> lnot v
                  | Ast.UPlus -> v)
            in
            o.ifields.(d) <- apply_ic ic v
        | None -> runtime_error "'this' outside a method");
        loop (pc + 1) sp isp fsp
    | IReturnThisFieldI (slots, m) -> (
        match frame.this with
        | Some o ->
            let v = vint o.ifields.(field_slot o slots m) in
            if b.b_scoped then ret_unwind vm locals scopes;
            v
        | None -> runtime_error "'this' outside a method")
    | IBinopConst2I (o1, k1, o2, k2) ->
        ist.(isp - 1) <- ibinop_i o2 (ibinop_i o1 ist.(isp - 1) k1) k2;
        loop (pc + 1) sp isp fsp
    | IBinopConst3I (o1, k1, o2, k2, o3, k3) ->
        ist.(isp - 1) <-
          ibinop_i o3 (ibinop_i o2 (ibinop_i o1 ist.(isp - 1) k1) k2) k3;
        loop (pc + 1) sp isp fsp
    | IJumpLocTFCmpFalseI (op, x, slots, m, t) -> (
        match frame.this with
        | Some o ->
            if icmp op (Array.unsafe_get ilocals x) o.ifields.(field_slot o slots m)
            then loop (pc + 1) sp isp fsp
            else loop t sp isp fsp
        | None -> runtime_error "'this' outside a method")
    | IScanStepI (j, slots, m, op, n, a, s2, m2, bdst, ty, tback) ->
        let o = as_obj (Array.get locals j) in
        if icmp op o.ifields.(field_slot o slots m) (Array.unsafe_get ilocals n)
        then loop (pc + 1) sp isp fsp
        else begin
          tick vm;
          let o2 = as_obj (Array.get locals a) in
          Array.set locals bdst
            (coerce ty o2.fields.cells.(field_slot o2 s2 m2));
          loop tback sp isp fsp
        end
    | ILoopScanI
        (x, op0, k0, texit0, j, slots, m, op, n, a, s2, m2, bdst, ty) ->
        let rec scan () =
          if icmp op0 (Array.unsafe_get ilocals x) k0 then begin
            tick vm;
            tick vm;
            let o = as_obj (Array.get locals j) in
            if
              icmp op
                o.ifields.(field_slot o slots m)
                (Array.unsafe_get ilocals n)
            then -1
            else begin
              tick vm;
              let o2 = as_obj (Array.get locals a) in
              Array.set locals bdst
                (coerce ty o2.fields.cells.(field_slot o2 s2 m2));
              (* same per-iteration profiling rule as [ILoopScan] *)
              if profiling then
                Array.unsafe_set prow pc (Array.unsafe_get prow pc + 1);
              scan ()
            end
          end
          else texit0
        in
        let t = scan () in
        if t >= 0 then loop t sp isp fsp else loop (pc + 2) sp isp fsp
  in
  if not b.b_scoped then loop start 0 0 0
  else
    try loop start 0 0 0
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      let e = unwind_exn vm locals scopes e in
      Printexc.raise_with_backtrace e bt

(* -- entry points -------------------------------------------------------------- *)

let make_profiler (cp : cprogram) : Vm_profile.t =
  Vm_profile.create
    ~body_sizes:(Array.map (fun b -> Array.length b.b_code) cp.cp_bodies)
    ~nfuncs:(Array.length cp.cp_funcs)

let make_vm ?(dead = Member.Set.empty) ?profiler ~step_limit ~call_depth_limit
    ~heap_object_limit (cp : cprogram) : vm =
  let rp = cp.cp_rp in
  let prof_counts, prof_calls =
    match profiler with
    | None -> ([||], [||])
    | Some (p : Vm_profile.t) -> (p.Vm_profile.body_counts, p.Vm_profile.call_counts)
  in
  {
    cp;
    funcs = cp.cp_funcs;
    classes = rp.rp_classes;
    destroy = cp.cp_destroy;
    profile = Profile.create ~dead rp.rp_table;
    globals =
      { arr_id = -1; cells = Array.make (Array.length rp.rp_globals) VUnit };
    statics = { arr_id = -1; cells = Array.map default_value rp.rp_static_tys };
    output = Buffer.create 256;
    obj_counter = 0;
    steps = 0;
    step_limit = max 1 step_limit;
    next_stop = min (max 1 step_limit) deadline_check_interval;
    call_depth = 0;
    max_call_depth = 0;
    call_depth_limit = max 1 call_depth_limit;
    heap_object_limit = max 1 heap_object_limit;
    prof_counts;
    prof_calls;
  }

let execute (vm : vm) : value =
  let cp = vm.cp in
  let rp = cp.cp_rp in
  (* native resource exhaustion becomes a structured limit error, as in
     the tree engine *)
  try
    (* globals, in declaration order *)
    Array.iteri
      (fun i (g : rglobal) ->
        vm.globals.cells.(i) <-
          (match cp.cp_ginit.(i) with
          | Some body ->
              coerce g.rg_coerce
                (exec_code vm (mk_frame ~ints:0 ~flts:0 0 None) body 0)
          | None -> default_value g.rg_default))
      rp.rp_globals;
    (try call_function vm rp.rp_main ~this:None empty_vals 0 0
     with Abort_called -> VInt 134)
  with
  | Stack_overflow ->
      limit_exceeded "interpreter stack exhausted (call depth limit %d)"
        vm.call_depth_limit
  | Out_of_memory ->
      limit_exceeded "interpreter heap exhausted (object limit %d)"
        vm.heap_object_limit

let output vm = Buffer.contents vm.output
let steps vm = vm.steps
let allocations vm = vm.obj_counter
let max_call_depth vm = vm.max_call_depth
let profile vm = vm.profile

(* == hot-site profiler report ================================================= *)

let mnemonic (i : instr) : string =
  match i with
  | IConst _ -> "IConst"
  | ILoad _ -> "ILoad"
  | ILoadRef _ -> "ILoadRef"
  | IGlobal _ -> "IGlobal"
  | IStatic _ -> "IStatic"
  | IThis -> "IThis"
  | IPop -> "IPop"
  | IUnary _ -> "IUnary"
  | IBinop _ -> "IBinop"
  | IToBool -> "IToBool"
  | ICastInt -> "ICastInt"
  | ICastFloat -> "ICastFloat"
  | IField _ -> "IField"
  | IDeref -> "IDeref"
  | IIndex -> "IIndex"
  | IAsObj -> "IAsObj"
  | IMemPtrDeref -> "IMemPtrDeref"
  | IAddrOf -> "IAddrOf"
  | ILocLocal _ -> "ILocLocal"
  | ILocLocalRef _ -> "ILocLocalRef"
  | ILocGlobal _ -> "ILocGlobal"
  | ILocStatic _ -> "ILocStatic"
  | ILocField _ -> "ILocField"
  | ILocDeref -> "ILocDeref"
  | ILocIndex -> "ILocIndex"
  | ILocMemPtr -> "ILocMemPtr"
  | ILocToPtr -> "ILocToPtr"
  | IObjToPtr -> "IObjToPtr"
  | IAssign _ -> "IAssign"
  | ICompound _ -> "ICompound"
  | IIncDec _ -> "IIncDec"
  | IStoreLocal _ -> "IStoreLocal"
  | IStoreLocalPop _ -> "IStoreLocalPop"
  | IStoreRawPop _ -> "IStoreRawPop"
  | IIncDecLocal _ -> "IIncDecLocal"
  | IIncDecLocalPop _ -> "IIncDecLocalPop"
  | IJump _ -> "IJump"
  | IJumpIfFalse _ -> "IJumpIfFalse"
  | IJumpIfTrue _ -> "IJumpIfTrue"
  | IJumpCmpFalse _ -> "IJumpCmpFalse"
  | IAndFalse _ -> "IAndFalse"
  | IOrTrue _ -> "IOrTrue"
  | ITick -> "ITick"
  | IPushScope _ -> "IPushScope"
  | IPopScope -> "IPopScope"
  | IExitScopes _ -> "IExitScopes"
  | IReturn -> "IReturn"
  | IReturnUnit -> "IReturnUnit"
  | IRaise _ -> "IRaise"
  | INewObj _ -> "INewObj"
  | INewScalar _ -> "INewScalar"
  | INewArrObj _ -> "INewArrObj"
  | INewArrScalar _ -> "INewArrScalar"
  | IDelete -> "IDelete"
  | IDeclScalar _ -> "IDeclScalar"
  | IDeclStackArr _ -> "IDeclStackArr"
  | IDeclCtor _ -> "IDeclCtor"
  | IBuiltin _ -> "IBuiltin"
  | ICallFunc _ -> "ICallFunc"
  | ICallMethod _ -> "ICallMethod"
  | ICallVirtual _ -> "ICallVirtual"
  | ICallFunPtr _ -> "ICallFunPtr"
  | ICallCtor _ -> "ICallCtor"
  | IInitField _ -> "IInitField"
  | IInitFieldArr _ -> "IInitFieldArr"
  | IInitFieldScalar _ -> "IInitFieldScalar"
  | ILoadField _ -> "ILoadField"
  | IThisField _ -> "IThisField"
  | IIndexField _ -> "IIndexField"
  | ILoadLocField _ -> "ILoadLocField"
  | ILoadIndex _ -> "ILoadIndex"
  | IFieldBinop _ -> "IFieldBinop"
  | ILoadFieldBinop _ -> "ILoadFieldBinop"
  | IBinopConst _ -> "IBinopConst"
  | IAssignPop _ -> "IAssignPop"
  | IStoreLocalPopJump _ -> "IStoreLocalPopJump"
  | IIncDecLocalJump _ -> "IIncDecLocalJump"
  | IJumpCmpConstFalse _ -> "IJumpCmpConstFalse"
  | IJumpLocCmpConstFalse _ -> "IJumpLocCmpConstFalse"
  | IJumpLocCmpFalse _ -> "IJumpLocCmpFalse"
  | IJumpLoc2CmpFalse _ -> "IJumpLoc2CmpFalse"
  | ILoadFieldStore _ -> "ILoadFieldStore"
  | ILoadFieldStoreJump _ -> "ILoadFieldStoreJump"
  | ILoadBinopConst _ -> "ILoadBinopConst"
  | ILoadFieldBC _ -> "ILoadFieldBC"
  | ILoadFieldLoadBC _ -> "ILoadFieldLoadBC"
  | IFieldIdxField _ -> "IFieldIdxField"
  | ILoadFieldBinop2 _ -> "ILoadFieldBinop2"
  | IBinopAssignPop _ -> "IBinopAssignPop"
  | ILoadLoadField _ -> "ILoadLoadField"
  | ILocFieldLoadField _ -> "ILocFieldLoadField"
  | IStoreTLoadField _ -> "IStoreTLoadField"
  | ILoadFieldIndex _ -> "ILoadFieldIndex"
  | ILoadFieldIndexStore _ -> "ILoadFieldIndexStore"
  | ILoadFieldCmpLocFalse _ -> "ILoadFieldCmpLocFalse"
  | IBinopConstAndFalse _ -> "IBinopConstAndFalse"
  | ILoadFieldBinopJumpFalse _ -> "ILoadFieldBinopJumpFalse"
  | IJumpBCCmpFalse _ -> "IJumpBCCmpFalse"
  | IScanStep _ -> "IScanStep"
  | ILoopScan _ -> "ILoopScan"
  | IBinopLoadField _ -> "IBinopLoadField"
  | IBinop2 _ -> "IBinop2"
  | IThisFieldBinop _ -> "IThisFieldBinop"
  | IFieldBinop2AssignPop _ -> "IFieldBinop2AssignPop"
  | IBinop2AssignPop _ -> "IBinop2AssignPop"
  | ILoadLocFieldLoadField _ -> "ILoadLocFieldLoadField"
  | ILoadFieldBCAndFalse _ -> "ILoadFieldBCAndFalse"
  | IJumpLocFCmpFalse _ -> "IJumpLocFCmpFalse"
  | IJumpLL2FBCCmpFalse _ -> "IJumpLL2FBCCmpFalse"
  (* typed (untagged) instructions *)
  | IConstI _ -> "IConstI"
  | IConstF _ -> "IConstF"
  | ILoadI _ -> "ILoadI"
  | ILoadF _ -> "ILoadF"
  | IFieldI _ -> "IFieldI"
  | IFieldF _ -> "IFieldF"
  | IIndexI -> "IIndexI"
  | IBoxI -> "IBoxI"
  | IBoxF -> "IBoxF"
  | IBoxIU -> "IBoxIU"
  | IBoxFU -> "IBoxFU"
  | IPopI -> "IPopI"
  | IPopF -> "IPopF"
  | ILoadIB _ -> "ILoadIB"
  | ILoadFieldIB _ -> "ILoadFieldIB"
  | ICastFI -> "ICastFI"
  | ICastIF -> "ICastIF"
  | IUnaryI _ -> "IUnaryI"
  | INegF -> "INegF"
  | INotF -> "INotF"
  | IToBoolI -> "IToBoolI"
  | IBinopII _ -> "IBinopII"
  | IArithFF _ -> "IArithFF"
  | ICmpFF _ -> "ICmpFF"
  | IArithIF _ -> "IArithIF"
  | IArithFI _ -> "IArithFI"
  | ICmpIF _ -> "ICmpIF"
  | ICmpFI _ -> "ICmpFI"
  | IStoreLocalI _ -> "IStoreLocalI"
  | IStoreLocalPopI _ -> "IStoreLocalPopI"
  | IStoreLocalF _ -> "IStoreLocalF"
  | IStoreLocalPopF _ -> "IStoreLocalPopF"
  | IStoreLocalIB _ -> "IStoreLocalIB"
  | IStoreLocalIBPop _ -> "IStoreLocalIBPop"
  | IStoreLocalFB _ -> "IStoreLocalFB"
  | IStoreLocalFBPop _ -> "IStoreLocalFBPop"
  | IIncDecLocalI _ -> "IIncDecLocalI"
  | IIncDecLocalPopI _ -> "IIncDecLocalPopI"
  | IIncDecLocalF _ -> "IIncDecLocalF"
  | IIncDecLocalPopF _ -> "IIncDecLocalPopF"
  | ICompoundLocalI _ -> "ICompoundLocalI"
  | ICompoundLocalIPop _ -> "ICompoundLocalIPop"
  | ICompoundLocalF _ -> "ICompoundLocalF"
  | ICompoundLocalFPop _ -> "ICompoundLocalFPop"
  | ICompoundLocalB _ -> "ICompoundLocalB"
  | ICompoundLocalBPop _ -> "ICompoundLocalBPop"
  | ILocFieldI _ -> "ILocFieldI"
  | ILocFieldF _ -> "ILocFieldF"
  | IAssignFieldI _ -> "IAssignFieldI"
  | IAssignFieldIPop _ -> "IAssignFieldIPop"
  | IAssignFieldF -> "IAssignFieldF"
  | IAssignFieldFPop -> "IAssignFieldFPop"
  | IAssignFieldIB _ -> "IAssignFieldIB"
  | IAssignFieldIBPop _ -> "IAssignFieldIBPop"
  | IAssignFieldFB _ -> "IAssignFieldFB"
  | IAssignFieldFBPop _ -> "IAssignFieldFBPop"
  | ICompoundFieldI _ -> "ICompoundFieldI"
  | ICompoundFieldIPop _ -> "ICompoundFieldIPop"
  | ICompoundFieldF _ -> "ICompoundFieldF"
  | ICompoundFieldFPop _ -> "ICompoundFieldFPop"
  | ICompoundFieldB _ -> "ICompoundFieldB"
  | ICompoundFieldBPop _ -> "ICompoundFieldBPop"
  | IIncDecFieldI _ -> "IIncDecFieldI"
  | IIncDecFieldIPop _ -> "IIncDecFieldIPop"
  | IIncDecFieldF _ -> "IIncDecFieldF"
  | IIncDecFieldFPop _ -> "IIncDecFieldFPop"
  | IDeclScalarI _ -> "IDeclScalarI"
  | IDeclScalarF _ -> "IDeclScalarF"
  | IInitFieldScalarI _ -> "IInitFieldScalarI"
  | IInitFieldScalarF _ -> "IInitFieldScalarF"
  | IInitFieldScalarB _ -> "IInitFieldScalarB"
  | IJumpIfFalseI _ -> "IJumpIfFalseI"
  | IJumpIfTrueI _ -> "IJumpIfTrueI"
  | IJumpIfFalseF _ -> "IJumpIfFalseF"
  | IJumpIfTrueF _ -> "IJumpIfTrueF"
  | IAndFalseI _ -> "IAndFalseI"
  | IOrTrueI _ -> "IOrTrueI"
  | IJumpCmpFalseI _ -> "IJumpCmpFalseI"
  | IJumpCmpConstFalseI _ -> "IJumpCmpConstFalseI"
  | IJumpLocCmpConstFalseI _ -> "IJumpLocCmpConstFalseI"
  | IJumpLocCmpFalseI _ -> "IJumpLocCmpFalseI"
  | IJumpLoc2CmpFalseI _ -> "IJumpLoc2CmpFalseI"
  | IJumpLocFCmpFalseI _ -> "IJumpLocFCmpFalseI"
  | ILoadFieldI _ -> "ILoadFieldI"
  | IThisFieldI _ -> "IThisFieldI"
  | IIndexFieldI _ -> "IIndexFieldI"
  | ILoadLoadFieldI _ -> "ILoadLoadFieldI"
  | IBinopConstI _ -> "IBinopConstI"
  | ILoadBinopConstI _ -> "ILoadBinopConstI"
  | ILoadFieldBCI _ -> "ILoadFieldBCI"
  | ILoadFieldLoadBCI _ -> "ILoadFieldLoadBCI"
  | ILoadFieldBinopI _ -> "ILoadFieldBinopI"
  | IThisFieldBinopI _ -> "IThisFieldBinopI"
  | ILoadFieldBCAndFalseI _ -> "ILoadFieldBCAndFalseI"
  | IStoreLocalPopJumpI _ -> "IStoreLocalPopJumpI"
  | IIncDecLocalJumpI _ -> "IIncDecLocalJumpI"
  | IFieldIdxFieldI _ -> "IFieldIdxFieldI"
  | ILoadFieldCmpLocFalseI _ -> "ILoadFieldCmpLocFalseI"
  | ILoadFieldBinopJumpFalseI _ -> "ILoadFieldBinopJumpFalseI"
  | IJumpBCCmpFalseI _ -> "IJumpBCCmpFalseI"
  | IJumpLL2FBCCmpFalseI _ -> "IJumpLL2FBCCmpFalseI"
  | IScanStepI _ -> "IScanStepI"
  | ILoopScanI _ -> "ILoopScanI"
  | ILoadIndexI _ -> "ILoadIndexI"
  | ILoadFieldIndexI _ -> "ILoadFieldIndexI"
  | ILoadFieldIndexStoreI _ -> "ILoadFieldIndexStoreI"
  | ILoadBinopI _ -> "ILoadBinopI"
  | ILoadLoadFieldBinopI _ -> "ILoadLoadFieldBinopI"
  | ILoadLocFieldI _ -> "ILoadLocFieldI"
  | IAssignFieldLIPop _ -> "IAssignFieldLIPop"
  | IAssignFieldLFIPop _ -> "IAssignFieldLFIPop"
  | IFieldStoreLI _ -> "IFieldStoreLI"
  | IFieldCopyII _ -> "IFieldCopyII"
  | IThisLocFieldI _ -> "IThisLocFieldI"
  | IAssignFieldCIPop _ -> "IAssignFieldCIPop"
  | IInitFieldLI _ -> "IInitFieldLI"
  | IInitFieldConstI _ -> "IInitFieldConstI"
  | IBinopConst2I _ -> "IBinopConst2I"
  | IBinopConst3I _ -> "IBinopConst3I"
  | IJumpLocTFCmpFalseI _ -> "IJumpLocTFCmpFalseI"
  | IJumpLocFieldBCFalseI _ -> "IJumpLocFieldBCFalseI"
  | IJumpThisFieldBCFalseI _ -> "IJumpThisFieldBCFalseI"
  | IThisXAssignI _ -> "IThisXAssignI"
  | IReturnThisFieldI _ -> "IReturnThisFieldI"
  | IInitFieldsI _ -> "IInitFieldsI"
  | IThisIdxFieldStoreI _ -> "IThisIdxFieldStoreI"
  | ITLFIndexIStoreJumpFBCI _ -> "ITLFIndexIStoreJumpFBCI"
  | IRpnStoreI _ -> "IRpnStoreI"
  | IBinopConstCastStoreI _ -> "IBinopConstCastStoreI"
  | ILoadIBn _ -> "ILoadIBn"
  | IThisCallM _ -> "IThisCallM"
  | IThisCallMStoreI _ -> "IThisCallMStoreI"
  | IIncDecJumpLocFCmpI _ -> "IIncDecJumpLocFCmpI"
  | IIncDecJumpLL2FBCI _ -> "IIncDecJumpLL2FBCI"
  | ITLFIStoreFieldCopyII _ -> "ITLFIStoreFieldCopyII"
  | IThisFieldIdxFStoreI _ -> "IThisFieldIdxFStoreI"

(* Typed (untagged) opcodes, for the profiler's typed-vs-generic
   dispatch split. Bridge boxing instructions count as typed: they only
   exist on classified paths. *)
let is_typed (i : instr) : bool =
  match i with
  | IConstI _ | IConstF _ | ILoadI _ | ILoadF _ | IFieldI _ | IFieldF _
  | IIndexI | IBoxI | IBoxF | IBoxIU | IBoxFU | IPopI | IPopF | ILoadIB _
  | ILoadIBn _ | IThisFieldIdxFStoreI _ | ITLFIStoreFieldCopyII _
  | IIncDecJumpLocFCmpI _ | IIncDecJumpLL2FBCI _
  | ILoadFieldIB _ | ICastFI | ICastIF
  | IUnaryI _ | INegF | INotF | IToBoolI | IBinopII _ | IArithFF _
  | ICmpFF _ | IArithIF _ | IArithFI _ | ICmpIF _ | ICmpFI _
  | IStoreLocalI _ | IStoreLocalPopI _ | IStoreLocalF _ | IStoreLocalPopF _
  | IStoreLocalIB _ | IStoreLocalIBPop _ | IStoreLocalFB _
  | IStoreLocalFBPop _ | IIncDecLocalI _ | IIncDecLocalPopI _
  | IIncDecLocalF _ | IIncDecLocalPopF _ | ICompoundLocalI _
  | ICompoundLocalIPop _ | ICompoundLocalF _ | ICompoundLocalFPop _
  | ICompoundLocalB _ | ICompoundLocalBPop _ | ILocFieldI _ | ILocFieldF _
  | IAssignFieldI _ | IAssignFieldIPop _ | IAssignFieldF | IAssignFieldFPop
  | IAssignFieldIB _ | IAssignFieldIBPop _ | IAssignFieldFB _
  | IAssignFieldFBPop _ | ICompoundFieldI _ | ICompoundFieldIPop _
  | ICompoundFieldF _ | ICompoundFieldFPop _ | ICompoundFieldB _
  | ICompoundFieldBPop _ | IIncDecFieldI _ | IIncDecFieldIPop _
  | IIncDecFieldF _ | IIncDecFieldFPop _ | IDeclScalarI _ | IDeclScalarF _
  | IInitFieldScalarI _ | IInitFieldScalarF _ | IInitFieldScalarB _
  | IJumpIfFalseI _ | IJumpIfTrueI _ | IJumpIfFalseF _
  | IJumpIfTrueF _ | IAndFalseI _ | IOrTrueI _
  | IJumpCmpFalseI _ | IJumpCmpConstFalseI _
  | IJumpLocCmpConstFalseI _
  | IJumpLocCmpFalseI _
  | IJumpLoc2CmpFalseI _ | IJumpLocFCmpFalseI _
  | ILoadFieldI _ | IThisFieldI _
  | IIndexFieldI _ | ILoadLoadFieldI _ | IBinopConstI _ | ILoadBinopConstI _
  | ILoadFieldBCI _ | ILoadFieldLoadBCI _ | ILoadFieldBinopI _
  | IThisFieldBinopI _ | ILoadFieldBCAndFalseI _
  | IStoreLocalPopJumpI _ | IIncDecLocalJumpI _
  | IFieldIdxFieldI _ | ILoadFieldCmpLocFalseI _
  | ILoadFieldBinopJumpFalseI _
  | IJumpBCCmpFalseI _
  | IJumpLL2FBCCmpFalseI _ | IScanStepI _
  | ILoopScanI _ | ILoadIndexI _ | ILoadFieldIndexI _
  | ILoadFieldIndexStoreI _ | ILoadBinopI _ | ILoadLoadFieldBinopI _
  | ILoadLocFieldI _
  | IAssignFieldLIPop _ | IAssignFieldLFIPop _ | IFieldStoreLI _
  | IFieldCopyII _
  | IThisLocFieldI _ | IAssignFieldCIPop _ | IInitFieldLI _
  | IInitFieldConstI _ | IBinopConst2I _ | IBinopConst3I _
  | IJumpLocTFCmpFalseI _
  | IJumpLocFieldBCFalseI _ | IJumpThisFieldBCFalseI _ | IThisXAssignI _
  | IReturnThisFieldI _ | IInitFieldsI _ | IThisIdxFieldStoreI _
  | ITLFIndexIStoreJumpFBCI _ | IRpnStoreI _ | IBinopConstCastStoreI _ ->
      true
  | _ -> false

(* The branch target carried by an instruction, for back-branch (loop)
   detection — the same constructor enumeration [patch_to] maintains.
   [ILoopScan] is handled separately: its back edge is internal. *)
let branch_target (i : instr) : int option =
  match i with
  | IJump t | IJumpIfFalse t | IJumpIfTrue t
  | IAndFalse t | IOrTrue t
  | IJumpCmpFalse (_, t)
  | IJumpCmpConstFalse (_, _, t)
  | IJumpLocCmpConstFalse (_, _, _, t)
  | IJumpLocCmpFalse (_, _, t)
  | IJumpLoc2CmpFalse (_, _, _, t)
  | ILoadFieldStoreJump (_, _, _, _, _, t)
  | IStoreLocalPopJump (_, _, t)
  | IIncDecLocalJump (_, _, t)
  | ILoadFieldCmpLocFalse (_, _, _, _, _, t)
  | IBinopConstAndFalse (_, _, t)
  | ILoadFieldBinopJumpFalse (_, _, _, _, t)
  | IJumpBCCmpFalse (_, _, _, t)
  | ILoadFieldBCAndFalse (_, _, _, _, _, t)
  | IJumpLocFCmpFalse (_, _, _, _, _, t)
  | IJumpLL2FBCCmpFalse (_, _, _, _, _, _, _, t)
  | IScanStep (_, _, _, _, _, _, _, _, _, _, t)
  (* typed branch forms *)
  | IJumpIfFalseI t | IJumpIfTrueI t
  | IJumpIfFalseF t | IJumpIfTrueF t
  | IAndFalseI t | IOrTrueI t
  | IJumpCmpFalseI (_, t)
  | IJumpCmpConstFalseI (_, _, t)
  | IJumpLocCmpConstFalseI (_, _, _, t)
  | IJumpLocCmpFalseI (_, _, t)
  | IJumpLoc2CmpFalseI (_, _, _, t)
  | IJumpLocFCmpFalseI (_, _, _, _, _, t)
  | ILoadFieldBCAndFalseI (_, _, _, _, _, t)
  | IJumpLocTFCmpFalseI (_, _, _, _, t)
  | IStoreLocalPopJumpI (_, _, t)
  | IIncDecLocalJumpI (_, _, t)
  | ILoadFieldCmpLocFalseI (_, _, _, _, _, t)
  | ILoadFieldBinopJumpFalseI (_, _, _, _, t)
  | IJumpBCCmpFalseI (_, _, _, t)
  | IJumpLL2FBCCmpFalseI (_, _, _, _, _, _, _, t)
  | IScanStepI (_, _, _, _, _, _, _, _, _, _, t)
  | IJumpLocFieldBCFalseI (_, _, _, _, _, t)
  | ITLFIndexIStoreJumpFBCI (_, _, t)
  | IIncDecJumpLocFCmpI (_, _, _, t) | IIncDecJumpLL2FBCI (_, _, _, t)
  | IJumpThisFieldBCFalseI (_, _, _, _, t) ->
      Some t
  | _ -> None

(* A loop site: a branch whose target is at or before itself, or a
   whole-loop superinstruction. *)
let is_loop_site (i : instr) ~pc =
  match i with
  | ILoopScan _ | ILoopScanI _ -> true
  | _ -> ( match branch_target i with Some t -> t <= pc | None -> false)

let profile_report (cp : cprogram) (p : Vm_profile.t) ~steps :
    Vm_profile.report =
  let opcodes : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let total = ref 0 in
  let typed = ref 0 in
  let funcs = ref [] in
  let sites = ref [] in
  Array.iteri
    (fun bid (body : cbody) ->
      let counts = p.Vm_profile.body_counts.(bid) in
      let owner, fidx = cp.cp_owners.(bid) in
      let body_total = ref 0 in
      Array.iteri
        (fun pc n ->
          if n > 0 then begin
            body_total := !body_total + n;
            let ins = body.b_code.(pc) in
            if is_typed ins then typed := !typed + n;
            let m = mnemonic ins in
            (match Hashtbl.find_opt opcodes m with
            | Some r -> r := !r + n
            | None -> Hashtbl.add opcodes m (ref n));
            if is_loop_site ins ~pc then
              sites :=
                {
                  Vm_profile.sr_func = owner;
                  sr_pc = pc;
                  sr_op = m;
                  sr_count = n;
                }
                :: !sites
          end)
        counts;
      total := !total + !body_total;
      let calls =
        match fidx with
        | Some fi -> p.Vm_profile.call_counts.(fi)
        | None -> 0
      in
      if !body_total > 0 || calls > 0 then
        funcs :=
          {
            Vm_profile.fr_name = owner;
            fr_instrs = !body_total;
            fr_calls = calls;
          }
          :: !funcs)
    cp.cp_bodies;
  let by_count_desc name count a b =
    let c = compare (count b) (count a) in
    if c <> 0 then c else String.compare (name a) (name b)
  in
  {
    Vm_profile.r_steps = steps;
    r_dispatches = !total;
    r_typed = !typed;
    r_opcodes =
      Hashtbl.fold (fun m r acc -> (m, !r) :: acc) opcodes []
      |> List.sort (by_count_desc fst snd);
    r_functions =
      List.sort
        (by_count_desc
           (fun (f : Vm_profile.func_row) -> f.Vm_profile.fr_name)
           (fun (f : Vm_profile.func_row) -> f.Vm_profile.fr_instrs))
        !funcs;
    r_sites =
      List.sort
        (by_count_desc
           (fun (s : Vm_profile.site_row) ->
             Printf.sprintf "%s@%d" s.Vm_profile.sr_func s.Vm_profile.sr_pc)
           (fun (s : Vm_profile.site_row) -> s.Vm_profile.sr_count))
        !sites;
  }

(* Debug aid (surfaced via DEADMEM_DISASM in [Interp.run_bytecode]):
   every compiled body as one [pc mnemonic [-> target]] line per
   instruction. Operand detail is deliberately omitted — the mnemonic
   stream with branch structure is what superinstruction work needs. *)
let disassemble (cp : cprogram) : string =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun bid (body : cbody) ->
      let owner, _ = cp.cp_owners.(bid) in
      Buffer.add_string buf
        (Printf.sprintf "== %s (body %d, omax %d imax %d fmax %d) ==\n" owner
           bid body.b_omax body.b_imax body.b_fmax);
      Array.iteri
        (fun pc ins ->
          let tgt =
            match branch_target ins with
            | Some t -> Printf.sprintf " -> %d" t
            | None -> ""
          in
          Buffer.add_string buf
            (Printf.sprintf "  %4d  %s%s\n" pc (mnemonic ins) tgt))
        body.b_code)
    cp.cp_bodies;
  Buffer.contents buf
