(* serve-mix: an in-process daemon ([Server.Serve.create] with two worker
   domains) under a closed loop of two client threads. Each client sends
   its next request only after the previous response arrived; a request
   is timed from [handle_line] to its response line.

   Every cycle of the mix holds the same requests: for each of the
   eleven ports an analyze, a check and a profiled run, an explain of a
   dead member for each port that has one, a source with a syntax error
   (answered [diagnostics]) and an explain of a member no class has
   (answered [unknown_member]). The seed shuffles each cycle's order and
   picks the member explained. One request per port and cycle carries
   the port plus a comment unique to it, so a quarter of the sources
   miss the front, analysis and lowering caches; the others repeat a
   port verbatim and may hit. *)

open Harness
module J = Telemetry.Json

type kind = Analyze | Check | Explain | Run | Broken | Unknown_member

let kind_name = function
  | Analyze -> "analyze"
  | Check -> "check"
  | Explain -> "explain"
  | Run -> "run"
  | Broken -> "broken"
  | Unknown_member -> "unknown-member"

let is_verdict = function Analyze | Check | Explain -> true | _ -> false

let clients = 2
let jobs = 2

type spec = {
  kind : kind;
  port : Refs.port;
  src : string;  (** JSON-escaped port source *)
  member : string;  (** explain target *)
  edited : bool;
}

let render (s : spec) n =
  let id = string_of_int n in
  let source =
    Printf.sprintf ",\"source\":\"%s%s%s\"" s.src
      (if s.kind = Broken then "\\nint broken_decl = ;" else "")
      (if s.edited then Printf.sprintf "\\n// edit %d\\n" n else "")
  in
  let cmd, extra =
    match s.kind with
    | Analyze | Broken -> ("analyze", "")
    | Check -> ("check", "")
    | Explain | Unknown_member -> ("explain", Printf.sprintf ",\"member\":\"%s\"" s.member)
    | Run -> ("run", ",\"profile\":true")
  in
  Printf.sprintf "{\"id\":\"%s\",\"trace_id\":\"r%s\",\"cmd\":\"%s\",\"callgraph\":\"rta\"%s%s}" id
    id cmd extra source

(* -- response checks --------------------------------------------------------- *)

let field path j = List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path
let int_at path j = Option.bind (field path j) J.to_int
let str_at path j = Option.bind (field path j) J.to_string
let show_str = function Some v -> v | None -> "missing"

let bool_at path j =
  match field path j with Some (J.Bool b) -> string_of_bool b | _ -> "missing"

(* The reference row a run response describes; name and dead list are
   the reference's own, since a run response carries no dead list. *)
let run_row (r : Refs.port) j =
  let i path = Option.value (int_at ("result" :: path) j) ~default:(-1) in
  let output = Option.value (str_at [ "result"; "output" ] j) ~default:"" in
  {
    r with
    return_value = i [ "return_value" ];
    output_md5 = Digest.to_hex (Digest.string output);
    output_len = String.length output;
    steps = i [ "steps" ];
    object_space = i [ "snapshot"; "object_space" ];
    dead_space = i [ "snapshot"; "dead_space" ];
    hwm = i [ "snapshot"; "high_water_mark" ];
    hwm_reduced = i [ "snapshot"; "high_water_mark_reduced" ];
    num_objects = i [ "snapshot"; "num_objects" ];
    scalar_bytes = i [ "snapshot"; "scalar_bytes" ];
    leaked = i [ "snapshot"; "leaked_objects" ];
  }

(* Errors of one response, and whether it was an error response other
   than the one its request must produce. *)
let check_response (s : spec) n line =
  let what = Printf.sprintf "request %d (%s %s)" n (kind_name s.kind) s.port.name in
  match J.parse line with
  | Error e -> ([ what ^ ": unparseable response: " ^ e ], true)
  | Ok j ->
      let ok = field [ "ok" ] j = Some (J.Bool true) in
      let id = expect (what ^ " id") (string_of_int n) (show_str (str_at [ "id" ] j)) in
      let error_kind want =
        expect (what ^ " error kind") want (show_str (str_at [ "error"; "kind" ] j))
      in
      let when_ok f =
        if ok then f () else [ what ^ ": failed: " ^ show_str (str_at [ "error"; "message" ] j) ]
      in
      let r = s.port in
      let errs =
        match s.kind with
        | Broken -> error_kind "diagnostics"
        | Unknown_member -> error_kind "unknown_member"
        | Analyze ->
            when_ok (fun () ->
                let got =
                  match Option.bind (field [ "result"; "dead_members" ] j) J.to_list with
                  | Some l -> List.sort compare (List.filter_map J.to_string l)
                  | None -> [ "missing" ]
                in
                expect (what ^ " dead list") (String.concat "," r.dead) (String.concat "," got))
        | Check ->
            when_ok (fun () ->
                expect (what ^ " clean") "true" (bool_at [ "result"; "clean" ] j)
                @ expect (what ^ " dead count")
                    (string_of_int (List.length r.dead))
                    (show_opt (int_at [ "result"; "dead_members" ] j)))
        | Explain ->
            when_ok (fun () ->
                expect (what ^ " " ^ s.member ^ " dead") "true" (bool_at [ "result"; "dead" ] j))
        | Run -> when_ok (fun () -> Refs.diff r (run_row r j))
      in
      let expected_error = s.kind = Broken || s.kind = Unknown_member in
      (id @ errs, (not ok) && not expected_error)

(* -- the seeded sequence ------------------------------------------------------ *)

type input = { ports : (Refs.port * string) array }

let load_inputs () =
  {
    ports =
      Array.of_list
        (List.map
           (fun (b : Benchmarks.Suite.t) -> (Refs.port b.name, Telemetry.json_escape b.source))
           Benchmarks.Suite.all);
  }

(* Cycle [c]: the fixed multiset of requests in a seeded order. Port [i]
   has its [(i + c) mod k]-th request edited, [k] being its number of
   requests in the cycle, so the edited kinds rotate while every cycle
   edits exactly one request per port. *)
let make_cycle inp ~seed c =
  let rng = Random.State.make [| seed; c |] in
  let per_port i ((port : Refs.port), src) =
    let kinds = [ Analyze; Check; Run ] @ if port.dead = [] then [] else [ Explain ] in
    let edit = (i + c) mod List.length kinds in
    List.mapi
      (fun j kind ->
        let member =
          if kind = Explain then List.nth port.dead (Random.State.int rng (List.length port.dead))
          else ""
        in
        { kind; port; src; member; edited = j = edit })
      kinds
  in
  let port0, src0 = inp.ports.(0) in
  let fixed =
    [
      { kind = Broken; port = port0; src = src0; member = ""; edited = false };
      {
        kind = Unknown_member;
        port = port0;
        src = src0;
        member = "NoSuchClass::no_member";
        edited = false;
      };
    ]
  in
  Array.of_list
    (shuffle rng (List.concat (List.mapi per_port (Array.to_list inp.ports)) @ fixed))

let cycle_len inp = Array.length (make_cycle inp ~seed:0 0)

(* -- the daemon ---------------------------------------------------------------- *)

(* Send one request and wait for its response. Returns (ms, response). *)
let round_trip srv line =
  let m = Mutex.create () and c = Condition.create () and slot = ref None in
  let respond resp =
    let t = now () in
    Mutex.protect m (fun () ->
        slot := Some (resp, t);
        Condition.signal c)
  in
  let t0 = now () in
  Server.Serve.handle_line srv ~respond line;
  let resp, t1 =
    Mutex.protect m (fun () ->
        while !slot = None do
          Condition.wait c m
        done;
        Option.get !slot)
  in
  (ms_between t0 t1, resp)

let cfg = { Server.Serve.default_config with jobs }

(* Set-up: the daemon is created and one warm-up request per port (a
   profiled run: parse, analysis and lowering) fills its caches. *)
let setup () =
  let inp = load_inputs () in
  let srv = Server.Serve.create cfg in
  Array.iteri
    (fun i (port, src) ->
      let s = { kind = Run; port; src; member = ""; edited = false } in
      let n = -1 - i in
      let _, resp = round_trip srv (render s n) in
      record_op (fst (check_response s n resp)))
    inp.ports;
  (inp, srv)

(* Untimed, between set-ups: stop the daemon, empty the front cache and
   push the process-global lowering cache's 64 entries out with tiny
   distinct programs, so every set-up starts from the same cache state. *)
let flushes = ref 0

let teardown srv =
  Option.iter Server.Serve.drain_pool srv;
  Server.Cache.clear ();
  for _ = 1 to 64 do
    incr flushes;
    let line =
      Printf.sprintf "{\"cmd\":\"run\",\"source\":\"int main() { return 0; } // flush %d\"}"
        !flushes
    in
    match Server.Protocol.parse_request ~max_depth:cfg.max_json_depth line with
    | Ok req -> ignore (Server.Serve.execute cfg req ~enqueued:(now ()))
    | Error (_, _, msg) -> problem ("flush request rejected: " ^ msg)
  done

type sample = { s_kind : kind; s_ms : float; s_cycle : int }

type result = {
  samples : sample list;
  cycle_len : int;
  traced_cycles : int list;
  cycle_calib : (int, float) Hashtbl.t;
      (** the calibration at the start of each cycle, which also ends the
          cycle before it *)
  cycle_ms : (int, float) Hashtbl.t;  (** wall time of each complete cycle *)
  unexpected_errors : int;
  stats : string;  (** the daemon's stats object, taken before drain *)
}

let run ~seed ~seconds ~trace =
  teardown None;
  let _, srv0 = timed_setup setup in
  teardown (Some srv0);
  let inp, srv = timed_setup setup in
  let len = cycle_len inp in
  let cycles = Hashtbl.create 256 in
  let next = ref 0 in
  let mu = Mutex.create () and cycle_done = Condition.create () in
  let answered = Hashtbl.create 256 in
  let answered_in c = Option.value (Hashtbl.find_opt answered c) ~default:0 in
  let complete = ref 0 and traced_complete = ref 0 and untraced_complete = ref 0 in
  let traced = Hashtbl.create 64 in
  let switched = ref (-1) in
  let cycle_start = Hashtbl.create 64 in
  let cycle_calib = Hashtbl.create 256 and cycle_ms = Hashtbl.create 256 in
  let deadline = now () +. float_of_int seconds in
  let enough () =
    if trace then !traced_complete >= traced_quota && !untraced_complete >= traced_quota
    else !complete >= min_samples
  in
  (* At the start of cycle [c], wait until every request of the previous
     cycle has been answered, then run a calibration while the daemon is
     idle, and in a traced run switch tracing, so no request runs on the
     wrong side of the switch. Called with [mu] held. *)
  let rec cycle_boundary () =
    let c = !next / len in
    if c > !switched then
      if c > 0 && answered_in (c - 1) < len then begin
        Condition.wait cycle_done mu;
        (* the other client may have made the switch while this one waited *)
        cycle_boundary ()
      end
      else begin
        Hashtbl.replace cycle_calib c (calibrate ());
        if trace then begin
          let t = c mod 2 = 1 && Hashtbl.length traced < traced_quota in
          if t then Hashtbl.replace traced c ();
          Telemetry.set_enabled t
        end;
        Hashtbl.replace cycle_start c (now ());
        switched := c
      end
  in
  (* take the next request, or [None] once the window is over *)
  let take () =
    Mutex.protect mu (fun () ->
        cycle_boundary ();
        let n = !next in
        let c = n / len in
        if n mod len = 0 && now () >= deadline && enough () then None
        else begin
          incr next;
          let cyc =
            match Hashtbl.find_opt cycles c with
            | Some a -> a
            | None ->
                let a = make_cycle inp ~seed c in
                Hashtbl.replace cycles c a;
                a
          in
          Some (n, c, cyc.(n mod len))
        end)
  in
  let samples = ref [] and answers = ref [] in
  let client () =
    let rec loop () =
      match take () with
      | None -> ()
      | Some (n, c, s) ->
          let tid = "r" ^ string_of_int n in
          let sp = Telemetry.Span.enter ~trace:tid "client.request" in
          let ms, resp = round_trip srv (render s n) in
          Telemetry.Span.exit sp;
          Mutex.protect mu (fun () ->
              Hashtbl.replace answered c (answered_in c + 1);
              if answered_in c = len then begin
                incr complete;
                Hashtbl.replace cycle_ms c (ms_between (Hashtbl.find cycle_start c) (now ()));
                if Hashtbl.mem traced c then incr traced_complete else incr untraced_complete
              end;
              Condition.broadcast cycle_done;
              answers := (s, n, resp) :: !answers;
              samples := { s_kind = s.kind; s_ms = ms; s_cycle = c } :: !samples);
          loop ()
    in
    loop ()
  in
  in_window (fun () ->
      let threads = List.init clients (fun _ -> Thread.create client ()) in
      List.iter Thread.join threads);
  Telemetry.set_enabled false;
  let stats = Server.Serve.stats_json srv in
  teardown (Some srv);
  (* responses are checked after the window, so the clients' parsing
     does not compete with the daemon for the two cores *)
  let unexpected = ref 0 in
  List.iter
    (fun (s, n, resp) ->
      let errs, unexpected_error = check_response s n resp in
      if unexpected_error then incr unexpected;
      record_op errs)
    !answers;
  for _ = 1 to setups - 2 do
    let _, srv = timed_setup setup in
    teardown (Some srv)
  done;
  {
    samples = !samples;
    cycle_len = len;
    traced_cycles = Hashtbl.fold (fun c () acc -> c :: acc) traced [];
    cycle_calib;
    cycle_ms;
    unexpected_errors = !unexpected;
    stats;
  }

(* The host scale of complete cycle [c], from the calibrations at its
   start and at the start of the next cycle. *)
let scale r c = host_scale (Hashtbl.find r.cycle_calib c) (Hashtbl.find r.cycle_calib (c + 1))

(* Mean latency of the requests of kinds [p] in each complete cycle of
   [cycles], times [scale] of the cycle: the timing samples. Every
   complete cycle holds the same requests, so every sample has the same
   composition. *)
let cycle_means r ~scale ~cycles p =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if cycles s.s_cycle then begin
        let n, k, t = Option.value (Hashtbl.find_opt tbl s.s_cycle) ~default:(0, 0, 0.) in
        let k, t = if p s.s_kind then (k + 1, t +. s.s_ms) else (k, t) in
        Hashtbl.replace tbl s.s_cycle (n + 1, k, t)
      end)
    r.samples;
  Hashtbl.fold
    (fun c (n, k, t) acc ->
      if n = r.cycle_len && k > 0 then (t /. float_of_int k *. scale c) :: acc else acc)
    tbl []

(* A quantile in ms of the daemon's per-op [queue_us] or [service_us]
   histograms, merged over the ops of the mix, and their sum in ms. *)
let server_hist which =
  let module H = Telemetry.Histogram in
  List.fold_left
    (fun acc op -> H.merge acc (H.snapshot (H.make ("server." ^ which ^ "." ^ op))))
    (H.empty_snap which) [ "analyze"; "check"; "explain"; "run" ]

(* Responses per second of the complete cycles of [cycles], their wall
   times multiplied by [scale]. *)
let requests_per_s r ~scale ~cycles =
  let n, ms =
    Hashtbl.fold
      (fun c wall (n, ms) ->
        if cycles c then (n + r.cycle_len, ms +. (wall *. scale c)) else (n, ms))
      r.cycle_ms (0, 0.)
  in
  1000. *. float_of_int n /. ms

(* Wall time of the traced cycles. *)
let traced_wall_ms r =
  Hashtbl.fold (fun c ms acc -> if List.mem c r.traced_cycles then acc +. ms else acc) r.cycle_ms 0.

let hist_quantile which q =
  float_of_int (Telemetry.Histogram.quantile (server_hist which) q) /. 1000.

let hist_sum_ms which = float_of_int (server_hist which).Telemetry.Histogram.h_sum /. 1000.

let worker_restarts stats =
  match J.parse stats with
  | Ok j -> Option.value (int_at [ "worker_restarts" ] j) ~default:(-1)
  | Error e ->
      problem ("unparseable stats object: " ^ e);
      -1

(* Median latency per request kind, for the printed table. *)
let print_kinds r =
  List.iter
    (fun k ->
      let l = List.filter_map (fun s -> if s.s_kind = k then Some s.s_ms else None) r.samples in
      Printf.printf "%-16s n=%-6d p50=%.3fms p90=%.3fms\n" (kind_name k) (List.length l)
        (median l) (quantile l 0.9))
    [ Analyze; Check; Explain; Run; Broken; Unknown_member ]
