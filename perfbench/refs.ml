(* Correctness references for the eleven paper ports, kept apart from
   the code under test: the dead list of the paper's configuration (RTA)
   and the observable outcome of running each port with that dead set.
   [main.exe --selftest] rebuilds every row with the tree-walking engine,
   the independent semantics reference, and fails on any difference.
   Change a row only when a change is meant to alter that program's
   observable result. *)

type port = {
  name : string;
  return_value : int;
  output_md5 : string;
  output_len : int;
  steps : int;
  object_space : int;
  dead_space : int;
  hwm : int;
  hwm_reduced : int;
  num_objects : int;
  scalar_bytes : int;
  leaked : int;
  dead : string list;  (** sorted *)
}

let ports = [
  { name = "jikes"; return_value = 0; output_md5 = "c0015d5caa4c990898d6b26be24c8cd5"; output_len = 66;
    steps = 459845; object_space = 122716; dead_space = 1784;
    hwm = 74728; hwm_reduced = 71184; num_objects = 6583; scalar_bytes = 0; leaked = 2583;
    dead = ["AstField::javadoc_ref"; "AstMethod::line_table_ref"; "JLexer::deprecated_count"; "JParser::n_errors"; "SymbolTable::n_probes"] };
  { name = "idl"; return_value = 0; output_md5 = "f6a941bed0551bcce0dc8c67287502ab"; output_len = 50;
    steps = 26115; object_space = 50680; dead_space = 2776;
    hwm = 50680; hwm_reduced = 50680; num_objects = 695; scalar_bytes = 0; leaked = 695;
    dead = ["IRObject::repo_tag"] };
  { name = "npic"; return_value = 0; output_md5 = "2a28e2493d2c4f889b24c25ad58918b3"; output_len = 23;
    steps = 967396; object_space = 120632; dead_space = 4100;
    hwm = 27032; hwm_reduced = 22928; num_objects = 7027; scalar_bytes = 8192; leaked = 0;
    dead = ["Cell::debug_flux"; "FieldSolver::spectral_modes"] };
  { name = "lcom"; return_value = 0; output_md5 = "6b37275baf6db123d4e6b8b98c3a8fe2"; output_len = 29;
    steps = 61204; object_space = 47976; dead_space = 3380;
    hwm = 29704; hwm_reduced = 22952; num_objects = 2139; scalar_bytes = 64; leaked = 1;
    dead = ["Expr::type_cache"; "Lexer::pushback"; "SymTab::hits"; "VM::trace_pc"] };
  { name = "taldict"; return_value = 0; output_md5 = "210c527b4fe8ccaf8665898571fc8c21"; output_len = 45;
    steps = 18454; object_space = 1048; dead_space = 32;
    hwm = 1048; hwm_reduced = 1016; num_objects = 40; scalar_bytes = 128; leaked = 0;
    dead = ["Histogram::last_update"; "TDictIterator::seen"; "TDictStats::avg_chain_x100"; "TDictStats::dict"; "TDictStats::max_chain"; "TDictStats::min_chain"; "TDictionary::load_pct"; "TDictionary::mod_count"; "TDictionary::stat_collisions"; "TObject::refcount"; "TSortedDictionary::cmp_mode"; "TSortedDictionary::sorted"] };
  { name = "ixx"; return_value = 0; output_md5 = "e7697fa37da6064b018b04f58c20d209"; output_len = 41;
    steps = 49278; object_space = 46504; dead_space = 4932;
    hwm = 37272; hwm_reduced = 30912; num_objects = 1952; scalar_bytes = 0; leaked = 0;
    dead = ["Decl::repo_version"; "OpDecl::context_id"; "Scanner::include_depth"] };
  { name = "simulate"; return_value = 0; output_md5 = "465c626a6a7dddcbe172040e646f20e6"; output_len = 50;
    steps = 174307; object_space = 99692; dead_space = 28;
    hwm = 3212; hwm_reduced = 3188; num_objects = 4153; scalar_bytes = 0; leaked = 125;
    dead = ["RandomStream::antithetic"; "RandomStream::stream_id"; "SimCalendar::max_length"; "SimCalendar::trace_level"; "SimMonitor::enabled"; "SimMonitor::event_mask"; "SimResource::capacity"; "SimResource::in_use"; "SimResource::queue_len"; "StatCounter::batch_size"; "StatCounter::sum_sq"] };
  { name = "sched"; return_value = 0; output_md5 = "f8e290b1815bd26b1db7ae0712bd9403"; output_len = 31;
    steps = 2161560; object_space = 732872; dead_space = 80352;
    hwm = 732872; hwm_reduced = 652520; num_objects = 19096; scalar_bytes = 80096; leaked = 19096;
    dead = ["Insn::debug_line"; "Insn::profile_count"; "RegInfo::coalesce_hint"; "RegInfo::spill_cost"] };
  { name = "hotwire"; return_value = 0; output_md5 = "8f02f0b1788b5220e0b4ea9e280068e0"; output_len = 27;
    steps = 2423; object_space = 4760; dead_space = 88;
    hwm = 4760; hwm_reduced = 4720; num_objects = 105; scalar_bytes = 0; leaked = 105;
    dead = ["Chart::legend_pos"; "Chart::n_series"; "Image::pixels"; "Image::scale_pct"; "Renderer::aa_level"; "Renderer::clip_x"; "Renderer::clip_y"; "Renderer::hit_test_slop"; "Slide::transition"; "Style::cache_key"; "Style::dirty"] };
  { name = "deltablue"; return_value = 0; output_md5 = "a1ac9f890043cccade005899ab296adf"; output_len = 27;
    steps = 22047; object_space = 3672; dead_space = 0;
    hwm = 3384; hwm_reduced = 3384; num_objects = 49; scalar_bytes = 0; leaked = 5;
    dead = [] };
  { name = "richards"; return_value = 0; output_md5 = "fb2df8c1a1a9272bdc14c9dd2c198d61"; output_len = 31;
    steps = 61628; object_space = 7992; dead_space = 0;
    hwm = 7992; hwm_reduced = 7992; num_objects = 196; scalar_bytes = 0; leaked = 189;
    dead = [] };
]

let port name = List.find (fun p -> p.name = name) ports

(* The row an actual run produces: [dead] is the sorted dead list. *)
let of_outcome ~name ~dead (o : Runtime.Interp.outcome) =
  let s = o.snapshot in
  {
    name;
    return_value = o.return_value;
    output_md5 = Digest.to_hex (Digest.string o.output);
    output_len = String.length o.output;
    steps = o.steps;
    object_space = s.object_space;
    dead_space = s.dead_space;
    hwm = s.high_water_mark;
    hwm_reduced = s.high_water_mark_reduced;
    num_objects = s.num_objects;
    scalar_bytes = s.scalar_bytes;
    leaked = s.leaked_objects;
    dead;
  }

(* One message per field of [got] that differs from [want]. *)
let diff (want : port) (got : port) =
  let str what w g =
    if w = g then [] else [ Printf.sprintf "%s %s: want %s, got %s" want.name what w g ]
  in
  let int what w g = str what (string_of_int w) (string_of_int g) in
  List.concat
    [
      str "dead list" (String.concat "," want.dead) (String.concat "," got.dead);
      int "return value" want.return_value got.return_value;
      str "output md5" want.output_md5 got.output_md5;
      int "output length" want.output_len got.output_len;
      int "steps" want.steps got.steps;
      int "objects" want.num_objects got.num_objects;
      int "object space" want.object_space got.object_space;
      int "dead space" want.dead_space got.dead_space;
      int "high-water mark" want.hwm got.hwm;
      int "reduced high-water mark" want.hwm_reduced got.hwm_reduced;
      int "scalar bytes" want.scalar_bytes got.scalar_bytes;
      int "leaked objects" want.leaked got.leaked;
    ]
