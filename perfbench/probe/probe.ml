(* probe — the benchmark's in-process helper.

   perfbench/run.py times the verifier through its CLI, one fresh `nfc`
   process per call.  This program covers what a CLI call cannot show:

     probe setup PROTO...
         resolve each protocol name (registry name or file:PATH, which
         parses, checks and compiles the .nfc source) and exit — the
         set-up cost of a CLI invocation, timed from outside;
     probe trace-lint [--untraced] NODES COVER_NODES REFINE SPEC...
     probe trace-boundness [--untraced] PROTO:NODES...
     probe trace-stab [--untraced] DOMAINS PROTO:CAP:NODES:RECOVERY:STARTS...
         one traced pass: the same public calls the CLI makes, each
         wrapped in a span, then a decomposition of those calls into the
         layers below them (explore, probes, cover, specint, legitimate
         sweep), timed apart from the pass.  With --untraced the spans
         and counters are off and only the pass time is printed, so the
         two pass times give the cost of tracing;
     probe check-reference lint|boundness NODES PROTO...
         compare configuration counts and measured boundness with the
         tree-based Nfc_mcheck.Reference engine;
     probe check-witness PROTO CAP SUBMITS NODES REPORT.json
         replay an SS1 witness through the protocol's own Spec.S step
         functions into the legitimate set;
     probe check-trace FILE
         re-judge a saved execution with Nfc_sim.Dl_check;
     probe cold REQUESTS.jsonl
         compute each service request's result document cold, in
         process, with the library calls the service handlers make;
     probe calibrate N
         a fixed amount of work that calls nothing of the verifier
         (N hash-table lookups and inserts of pseudo-random keys, with
         the allocation and collection they bring), to time the host's
         speed beside the verifier's.

   Every mode prints one JSON object on stdout. *)

module J = Nfc_util.Json
module Explore = Nfc_mcheck.Explore
module Boundness = Nfc_mcheck.Boundness
module Spec = Nfc_protocol.Spec

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("probe: " ^ msg); exit 2) fmt

let resolve name =
  match Nfc_protocol.Registry.parse name with
  | Ok p -> p
  | Error msg -> fail "cannot resolve %s: %s" name msg

let compile path =
  match Nfc_pdl.Pdl.load_file path with Ok c -> c | Error msg -> fail "%s" msg

let int_arg s = match int_of_string_opt s with Some n -> n | None -> fail "not an integer: %s" s

let print_obj fields = print_endline (J.to_string (J.Obj fields))

(* ---------------------------------------------------------------- spans *)

(* Spans are kept in memory and summed by name when the pass ends: a
   name's value is the total wall-clock of its spans.  Counters sit beside
   them under their own names.  With tracing off, a span only calls its
   function and a counter does nothing. *)
let tracing = ref true
let spans : (string, float) Hashtbl.t = Hashtbl.create 64
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    bump spans name (now () -. t0);
    r
  end

let count name v = if !tracing then bump counts name (float_of_int v)
let count_max name v =
  let v = float_of_int v in
  match Hashtbl.find_opt counts name with
  | Some old when old >= v -> ()
  | _ -> if !tracing then Hashtbl.replace counts name v

(* An untraced pass ends here: its time is all it reports. *)
let end_untraced ~pass_s =
  if not !tracing then begin
    print_obj [ ("pass_s", J.Float pass_s) ];
    exit 0
  end

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.

(* Print the pass time with every span and counter, plus the ratios that
   need both. *)
let emit_trace ~pass_s extra =
  let fields tbl = Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) tbl [] in
  let all = List.sort compare (fields spans @ fields counts @ extra) in
  print_obj [ ("pass_s", J.Float pass_s); ("metrics", J.Obj all) ]

(* ----------------------------------------------------------------- lint *)

let lint_cfg ~nodes ~cover_nodes ~complete =
  {
    Nfc_lint.Checks.default_config with
    Nfc_lint.Checks.bounds =
      {
        Explore.capacity_tr = 2;
        capacity_rt = 2;
        submit_budget = 3;
        max_nodes = nodes;
        allow_drop = true;
        por = false;
      };
    complete;
    cover_max_nodes = cover_nodes;
    engine_domains = 1;
  }

(* The layers under one lint call, timed apart: the exploration, the B1
   probes on that exploration (minus the gated re-exploration lint runs
   only when the reach carries a phantom), and the cover fixpoint. *)
let decompose_lint (cfg : Nfc_lint.Checks.config) ~cover spec =
  let module P = (val spec : Spec.S) in
  let module M = Boundness.Make (P) in
  let bounds = cfg.Nfc_lint.Checks.bounds in
  let t0 = now () in
  let reach = M.E.reachable_set bounds in
  let reach_s = now () -. t0 in
  bump spans "explore.reach_s" reach_s;
  count "explore.configs" reach.M.E.reach_stats.Explore.nodes;
  count_max "explore.max_depth" reach.M.E.reach_stats.Explore.max_depth;
  let gated_s =
    if reach.M.E.first_phantom = None then 0.
    else begin
      let module G = Explore.Make (P) in
      let t0 = now () in
      ignore (G.reachable_set ~deliver_valid_only:true bounds);
      now () -. t0
    end
  in
  let t0 = now () in
  let report =
    M.measure ~max_probes:cfg.Nfc_lint.Checks.max_probes ~reach ~explore:bounds
      ~probe_bounds:cfg.Nfc_lint.Checks.probe ()
  in
  bump spans "lint.probe_s" (Float.max 0. (now () -. t0 -. gated_s));
  count "lint.probes" (report.Boundness.semi_valid_configs - report.Boundness.probes_skipped);
  if cover then begin
    let module C = Nfc_absint.Cover.Make (P) (M.E) in
    let stats =
      span "cover.run_s" (fun () ->
          C.run ~max_nodes:cfg.Nfc_lint.Checks.cover_max_nodes
            ~submit_budget:bounds.Explore.submit_budget ())
    in
    count "cover.size" stats.Nfc_absint.Cover.cover_size;
    count "cover.accelerations" stats.Nfc_absint.Cover.accelerations
  end

let trace_lint args =
  match args with
  | nodes :: cover_nodes :: refine :: specs ->
      let nodes = int_arg nodes and cover_nodes = int_arg cover_nodes in
      let rounds = int_arg refine in
      let registry = lint_cfg ~nodes ~cover_nodes ~complete:true in
      let plain = lint_cfg ~nodes ~cover_nodes ~complete:false in
      let t0 = now () in
      (* The pass: the registry sweep of `nfc lint --complete`, then one
         `nfc lint --spec S --refine N` per spec. *)
      List.iter
        (fun (e : Nfc_protocol.Registry.entry) ->
          let spec = e.Nfc_protocol.Registry.default () in
          span ("lint.protocol_s." ^ e.Nfc_protocol.Registry.key) (fun () ->
              ignore (Nfc_lint.Report.jsonl [ Nfc_lint.Engine.run registry spec ])))
        Nfc_protocol.Registry.all;
      let compiled =
        List.map
          (fun path ->
            let c = span "pdl.compile_s" (fun () -> compile path) in
            count "pdl.specs" 1;
            let result = Nfc_lint.Engine.run plain c.Nfc_pdl.Pdl.spec in
            let res =
              span "refine.run_s" (fun () ->
                  Nfc_refine.Refine.run ~rounds c.Nfc_pdl.Pdl.checked)
            in
            count "refine.rounds" res.Nfc_refine.Refine.rounds_used;
            ignore
              (Nfc_lint.Report.jsonl
                 [
                   Nfc_specint.Specint.apply_to_lint
                     ~refine_rounds:res.Nfc_refine.Refine.rounds_used
                     ~refine_notes:(Nfc_refine.Refine.notes res)
                     res.Nfc_refine.Refine.report result;
                 ]);
            c)
          specs
      in
      let pass_s = now () -. t0 in
      end_untraced ~pass_s;
      (* Decomposition, outside the pass. *)
      List.iter
        (fun (e : Nfc_protocol.Registry.entry) ->
          decompose_lint registry ~cover:true (e.Nfc_protocol.Registry.default ()))
        Nfc_protocol.Registry.all;
      List.iter
        (fun c ->
          decompose_lint plain ~cover:false c.Nfc_pdl.Pdl.spec;
          let rep =
            span "specint.analyze_s" (fun () ->
                Nfc_specint.Specint.analyze c.Nfc_pdl.Pdl.checked)
          in
          count "specint.iterations" rep.Nfc_specint.Specint.iterations)
        compiled;
      let reach_s = get spans "explore.reach_s" in
      emit_trace ~pass_s
        [
          ("explore.configs_per_s", J.Float (get counts "explore.configs" /. reach_s));
          ("lint.probe_share", J.Float (get spans "lint.probe_s" /. pass_s));
        ]
  | _ -> fail "usage: probe trace-lint NODES COVER_NODES REFINE SPEC..."

(* ------------------------------------------------------------ boundness *)

let boundness_bounds nodes =
  {
    Explore.capacity_tr = 2;
    capacity_rt = 2;
    submit_budget = 2;
    max_nodes = nodes;
    allow_drop = true;
    por = false;
  }

(* "PROTO:N" with PROTO possibly containing ':' itself (stab-arq:2). *)
let last_int_field s =
  match String.rindex_opt s ':' with
  | Some i -> (String.sub s 0 i, int_arg (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> fail "expected PROTO:N, got %s" s

let trace_boundness args =
  let inputs = List.map last_int_field args in
  let t0 = now () in
  let reports =
    List.map
      (fun (name, nodes) ->
        let spec = resolve name in
        let report =
          span "boundness.measure_s" (fun () ->
              Boundness.measure spec ~explore:(boundness_bounds nodes)
                ~probe:Boundness.default_probe_bounds)
        in
        ignore (J.to_string (Boundness.to_json report));
        (spec, nodes, report))
      inputs
  in
  let pass_s = now () -. t0 in
  end_untraced ~pass_s;
  (* Decomposition: time the gated exploration that measure starts with on
     its own; the rest of measure is probing. *)
  List.iter
    (fun (spec, nodes, (report : Boundness.report)) ->
      let module P = (val spec : Spec.S) in
      let module E = Explore.Make (P) in
      let t0 = now () in
      let reach = E.reachable_set ~deliver_valid_only:true (boundness_bounds nodes) in
      bump spans "boundness.gated_explore_s" (now () -. t0);
      count "boundness.probes" (report.Boundness.semi_valid_configs - report.Boundness.probes_skipped);
      count "boundness.probes_exhausted" report.Boundness.probes_exhausted;
      let pairs = Hashtbl.create 1024 in
      List.iter
        (fun (c : E.config) ->
          if c.E.submitted - c.E.delivered = 1 then Hashtbl.replace pairs (c.E.sid, c.E.rid) ())
        reach.E.configs;
      count "boundness.distinct_start_pairs" (Hashtbl.length pairs))
    reports;
  let probe_s = get spans "boundness.measure_s" -. get spans "boundness.gated_explore_s" in
  emit_trace ~pass_s
    [
      ("boundness.probe_s", J.Float probe_s);
      ("boundness.probes_per_s", J.Float (get counts "boundness.probes" /. probe_s));
      ("boundness.probe_share", J.Float (probe_s /. pass_s));
    ]

(* ----------------------------------------------------------------- stab *)

let stab_cfg ~cap ~submits ~nodes ~recovery ~starts =
  {
    Nfc_stab.Converge.bounds =
      {
        Explore.capacity_tr = cap;
        capacity_rt = cap;
        submit_budget = submits;
        max_nodes = nodes;
        allow_drop = true;
        por = false;
      };
    state_cap = 48;
    max_starts = starts;
    recovery_nodes = recovery;
  }

(* "PROTO:CAP:NODES:RECOVERY:STARTS", PROTO possibly containing ':'. *)
let stab_input s =
  match List.rev (String.split_on_char ':' s) with
  | starts :: recovery :: nodes :: cap :: proto when proto <> [] ->
      ( String.concat ":" (List.rev proto),
        stab_cfg ~cap:(int_arg cap) ~submits:2 ~nodes:(int_arg nodes)
          ~recovery:(int_arg recovery) ~starts:(int_arg starts) )
  | _ -> fail "expected PROTO:CAP:NODES:RECOVERY:STARTS, got %s" s

let trace_stab args =
  match args with
  | domains :: inputs ->
      let domains = int_arg domains in
      let inputs = List.map stab_input inputs in
      let t0 = now () in
      let runs =
        List.map
          (fun (name, cfg) ->
            let spec = resolve name in
            let report =
              span "stab.analyze_s" (fun () -> Nfc_stab.Converge.analyze ~domains spec cfg)
            in
            ignore (J.to_string (Nfc_stab.Converge.to_json report));
            (spec, cfg, report))
          inputs
      in
      let pass_s = now () -. t0 in
      end_untraced ~pass_s;
      List.iter
        (fun (spec, (cfg : Nfc_stab.Converge.cfg), (r : Nfc_stab.Converge.report)) ->
          let module P = (val spec : Spec.S) in
          let module E = Explore.Make (P) in
          span "stab.legit_s" (fun () ->
              ignore (E.reachable_set ~domains cfg.Nfc_stab.Converge.bounds));
          count "stab.legit_configs" r.Nfc_stab.Converge.legit_configs;
          List.iter
            (function
              | Some (c : Nfc_stab.Converge.convergence) ->
                  count "stab.starts" c.Nfc_stab.Converge.seeds_analyzed;
                  count "stab.recovery_configs" c.Nfc_stab.Converge.explored
              | None -> ())
            [ r.Nfc_stab.Converge.ss1_convergence; r.Nfc_stab.Converge.ss2_convergence ])
        runs;
      emit_trace ~pass_s
        [
          ( "stab.recovery_s",
            J.Float (get spans "stab.analyze_s" -. get spans "stab.legit_s") );
        ]
  | _ -> fail "usage: probe trace-stab DOMAINS PROTO:CAP:NODES:RECOVERY:STARTS..."

(* --------------------------------------------------------------- checks *)

(* Each check is a name, a verdict and a one-line reason. *)
let checks = ref []
let check name ok detail = checks := (name, ok, detail) :: !checks

let emit_checks () =
  print_obj
    [
      ( "checks",
        J.List
          (List.rev_map
             (fun (name, ok, detail) ->
               J.Obj [ ("name", J.String name); ("ok", J.Bool ok); ("detail", J.String detail) ])
             !checks) );
    ]

(* The hashed engine against the tree-based reference: identical
   configuration statistics and an identical boundness report. *)
let check_reference args =
  match args with
  | mode :: nodes :: protos ->
      let nodes = int_arg nodes in
      let bounds, probe, max_probes =
        match mode with
        | "lint" ->
            let cfg = lint_cfg ~nodes ~cover_nodes:1 ~complete:false in
            (cfg.Nfc_lint.Checks.bounds, cfg.Nfc_lint.Checks.probe, Some cfg.Nfc_lint.Checks.max_probes)
        | "boundness" -> (boundness_bounds nodes, Boundness.default_probe_bounds, None)
        | m -> fail "unknown reference mode %s" m
      in
      List.iter
        (fun name ->
          let spec = resolve name in
          let hashed = Explore.reachable spec bounds
          and tree = Nfc_mcheck.Reference.reachable spec bounds in
          check ("reference.configs." ^ name) (hashed = tree)
            (Printf.sprintf "hashed %d configs, reference %d" hashed.Explore.nodes tree.Explore.nodes);
          let b = Boundness.measure ?max_probes spec ~explore:bounds ~probe in
          let r = Nfc_mcheck.Reference.measure_boundness ?max_probes spec ~explore:bounds ~probe in
          let show rep = J.to_string (Boundness.to_json rep) in
          check ("reference.boundness." ^ name) (show b = show r)
            (Printf.sprintf "hashed %s, reference %s" (show b) (show r)))
        protos;
      emit_checks ()
  | _ -> fail "usage: probe check-reference lint|boundness NODES PROTO..."

let read_file path =
  match Nfc_pdl.Pdl.read_file path with Ok s -> s | Error msg -> fail "%s" msg

let json_file path =
  match J.of_string (read_file path) with Ok j -> j | Error msg -> fail "%s: %s" path msg

let between s ~after ~before =
  let find_from i sub =
    let n = String.length sub in
    let rec go i = if i + n > String.length s then None else if String.sub s i n = sub then Some i else go (i + 1) in
    go i
  in
  match find_from 0 after with
  | None -> None
  | Some i -> (
      let start = i + String.length after in
      match find_from start before with
      | None -> None
      | Some j -> Some (String.sub s start (j - start), j))

(* "0x2,3" -> [0; 0; 3] *)
let parse_channel text =
  if text = "" then []
  else
    List.concat_map
      (fun item ->
        match String.split_on_char 'x' item with
        | [ v ] -> [ int_arg v ]
        | [ v; n ] -> List.init (int_arg n) (fun _ -> int_arg v)
        | _ -> fail "bad channel item %s" item)
      (String.split_on_char ',' text)
    |> List.sort compare

(* Replay the SS1 witness of a `nfc stab --json` report move by move
   through the protocol's own step functions, independently of the
   engine's successor relation, and check that it enters the legitimate
   set after exactly [bound] moves and not before. *)
let check_witness args =
  match args with
  | [ name; cap; submits; nodes; report ] ->
      let spec = resolve name in
      let module P = (val spec : Spec.S) in
      let module E = Explore.Make (P) in
      let cap = int_arg cap in
      let cfg =
        stab_cfg ~cap ~submits:(int_arg submits) ~nodes:(int_arg nodes) ~recovery:1 ~starts:1
      in
      let legit = (E.reachable_set cfg.Nfc_stab.Converge.bounds).E.configs in
      let chan pkts = List.concat_map (fun (v, n) -> List.init n (fun _ -> v)) pkts in
      let lset =
        List.map (fun (c : E.config) -> (c.E.sender, c.E.receiver, chan (E.packets_tr c), chan (E.packets_rt c))) legit
      in
      let same (s, r, tr, rt) (s', r', tr', rt') =
        P.compare_sender s s' = 0 && P.compare_receiver r r' = 0 && tr = tr' && rt = rt'
      in
      let in_l c = List.exists (same c) lset in
      let j = json_file report in
      let conv = Option.value (J.member "ss1_convergence" j) ~default:J.Null in
      let str k o = Option.bind (J.member k o) J.to_string_opt in
      let bound = Option.value (Option.bind (J.member "bound" conv) J.to_int_opt) ~default:(-1) in
      let moves =
        match J.member "witness" conv with
        | Some (J.List l) -> List.filter_map J.to_string_opt l
        | _ -> []
      in
      let start = Option.value (str "witness_start" conv) ~default:"" in
      let find pp states text =
        List.find_opt (fun st -> Format.asprintf "%a" pp st = text) states
      in
      let parsed =
        match
          ( between start ~after:"sender=" ~before:" receiver=",
            between start ~after:" receiver=" ~before:" tr=[",
            between start ~after:" tr=[" ~before:"] rt=[",
            between start ~after:"] rt=[" ~before:"]" )
        with
        | Some (s, _), Some (r, _), Some (tr, _), Some (rt, _) -> (
            match
              ( find P.pp_sender (List.map (fun (c : E.config) -> c.E.sender) legit) s,
                find P.pp_receiver (List.map (fun (c : E.config) -> c.E.receiver) legit) r )
            with
            | Some s, Some r -> Some (s, r, parse_channel tr, parse_channel rt)
            | _ -> None)
        | _ -> None
      in
      let remove v l =
        let rec go = function [] -> None | x :: xs when x = v -> Some xs | x :: xs -> Option.map (fun t -> x :: t) (go xs) in
        go l
      in
      let add v l = List.sort compare (v :: l) in
      let step (s, r, tr, rt) move =
        let arg prefix =
          let n = String.length prefix in
          if String.length move > n + 1 && String.sub move 0 n = prefix then
            int_of_string_opt (String.sub move n (String.length move - n - 1))
          else None
        in
        match
          ( arg "receive_pkt^{t->r}(", arg "receive_pkt^{r->t}(", arg "send_pkt^{t->r}(",
            arg "send_pkt^{r->t}(", arg "receive_msg(", arg "drop_pkt^{t->r}(",
            arg "drop_pkt^{r->t}(" )
        with
        | Some v, _, _, _, _, _, _ ->
            Option.to_list (Option.map (fun tr -> (s, P.on_data r v, tr, rt)) (remove v tr))
        | _, Some v, _, _, _, _, _ ->
            Option.to_list (Option.map (fun rt -> (P.on_ack s v, r, tr, rt)) (remove v rt))
        | _, _, Some v, _, _, _, _ -> (
            match P.sender_poll s with
            | Some p, s' when p = v && List.length tr < cap -> [ (s', r, add v tr, rt) ]
            | _ -> [])
        | _, _, _, Some v, _, _, _ -> (
            match P.receiver_poll r with
            | Some (Spec.Rsend p), r' when p = v && List.length rt < cap -> [ (s, r', tr, add v rt) ]
            | _ -> [])
        | _, _, _, _, Some _, _, _ -> (
            match P.receiver_poll r with Some Spec.Rdeliver, r' -> [ (s, r', tr, rt) ] | _ -> [])
        | _, _, _, _, _, Some v, _ -> Option.to_list (Option.map (fun tr -> (s, r, tr, rt)) (remove v tr))
        | _, _, _, _, _, _, Some v -> Option.to_list (Option.map (fun rt -> (s, r, tr, rt)) (remove v rt))
        | _ when move = "tick" ->
            (match P.sender_poll s with
            | None, s' when P.compare_sender s' s <> 0 -> [ (s', r, tr, rt) ]
            | _ -> [])
            @ (match P.receiver_poll r with
              | None, r' when P.compare_receiver r' r <> 0 -> [ (s, r', tr, rt) ]
              | _ -> [])
        | _ -> []
      in
      (match parsed with
      | None -> check "stab.witness_start" false ("cannot locate the witness start: " ^ start)
      | Some c0 ->
          check "stab.witness_length" (List.length moves = bound && bound > 0)
            (Printf.sprintf "%d moves, bound %d" (List.length moves) bound);
          (* Off L before every move; a move that re-enters L early would
             make the start closer than [bound]. *)
          let final =
            List.fold_left
              (fun frontier move ->
                List.concat_map (fun c -> step c move) (List.filter (fun c -> not (in_l c)) frontier))
              [ c0 ] moves
          in
          check "stab.witness_replay" (List.exists in_l final)
            (Printf.sprintf "%d moves replayed through %s's step functions; %d of %d end states legitimate"
               (List.length moves) P.name
               (List.length (List.filter in_l final))
               (List.length final)));
      emit_checks ()
  | _ -> fail "usage: probe check-witness PROTO CAP SUBMITS NODES REPORT.json"

let check_trace args =
  match args with
  | [ file ] ->
      (match Nfc_sim.Trace_io.load file with
      | Error msg -> check "phantom.dl_check" false msg
      | Ok trace ->
          let dl = Nfc_sim.Dl_check.create () in
          List.iter (fun a -> ignore (Nfc_sim.Dl_check.on_action dl a)) trace;
          let v = Nfc_sim.Dl_check.violated dl in
          check "phantom.dl_check" (v <> None)
            (Printf.sprintf "%d actions; Dl_check: %s" (List.length trace)
               (Option.value v ~default:"no violation")));
      emit_checks ()
  | _ -> fail "usage: probe check-trace FILE"

(* ------------------------------------------------------ service, cold *)

(* Each request line carries the endpoint, the complete body the client
   sent, and for "pdl:" handles the submitted source.  The result is what
   the handler's compute closure returns, computed here with no resident
   state. *)
let cold args =
  match args with
  | [ file ] ->
      let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file file)) in
      let results =
        List.map
          (fun line ->
            let req = match J.of_string line with Ok j -> j | Error m -> fail "%s" m in
            let field k = Option.value (J.member k req) ~default:J.Null in
            let body = field "body" in
            let geti k = match J.get_int k body with Ok v -> v | Error m -> fail "%s" m in
            let getb k = match J.get_bool k body with Ok v -> v | Error m -> fail "%s" m in
            let gets k = match J.get_string k body with Ok v -> v | Error m -> fail "%s" m in
            let spec =
              match J.to_string_opt (field "source") with
              | Some src -> (
                  match Nfc_pdl.Pdl.compile_string src with
                  | Ok c -> c.Nfc_pdl.Pdl.spec
                  | Error _ -> fail "submitted source does not compile")
              | None -> resolve (gets "protocol")
            in
            let doc =
              match J.to_string_opt (field "endpoint") with
              | Some "lint" ->
                  let cfg =
                    {
                      (lint_cfg ~nodes:(geti "nodes") ~cover_nodes:(geti "cover_nodes")
                         ~complete:(getb "complete"))
                      with
                      Nfc_lint.Checks.bounds =
                        {
                          Explore.capacity_tr = geti "capacity";
                          capacity_rt = geti "capacity";
                          submit_budget = geti "submits";
                          max_nodes = geti "nodes";
                          allow_drop = true;
                          por = false;
                        };
                    }
                  in
                  let line = Nfc_lint.Report.jsonl [ Nfc_lint.Engine.run cfg spec ] in
                  String.sub line 0 (String.length line - 1)
              | Some "boundness" ->
                  J.to_string
                    (Boundness.to_json
                       (Boundness.measure spec
                          ~explore:
                            {
                              (boundness_bounds (geti "nodes")) with
                              Explore.capacity_tr = geti "capacity";
                              capacity_rt = geti "capacity";
                              submit_budget = geti "submits";
                            }
                          ~probe:Boundness.default_probe_bounds))
              | Some "cover" ->
                  let module P = (val spec : Spec.S) in
                  let module E = Explore.Make (P) in
                  let module C = Nfc_absint.Cover.Make (P) (E) in
                  J.to_string
                    (Nfc_absint.Cover.stats_to_json
                       (C.run ~max_nodes:(geti "nodes") ~submit_budget:(geti "submits") ()))
              | Some "simulate" ->
                  let factory =
                    match Nfc_channel.Policy.parse_factory (gets "channel") with
                    | Ok f -> f
                    | Error m -> fail "%s" m
                  in
                  let result =
                    Nfc_sim.Harness.run spec
                      {
                        Nfc_sim.Harness.default_config with
                        policy_tr = factory ();
                        policy_rt = factory ();
                        n_messages = geti "messages";
                        submit_every = geti "pace";
                        seed = geti "seed";
                        record_trace = false;
                        max_rounds = geti "max_rounds";
                        stall_rounds = Some 100_000;
                      }
                  in
                  Nfc_sim.Metrics.to_json result.Nfc_sim.Harness.metrics
              | Some "fuzz" ->
                  Nfc_fuzz.Campaign.to_json
                    (Nfc_fuzz.Campaign.run spec
                       {
                         Nfc_fuzz.Campaign.default_cfg with
                         Nfc_fuzz.Campaign.iterations = geti "iterations";
                         seed = geti "seed";
                         shrink = getb "shrink";
                         batches = geti "batches";
                         gen =
                           {
                             Nfc_fuzz.Gen.default_cfg with
                             Nfc_fuzz.Gen.steps = geti "steps";
                             submits = geti "submits";
                           };
                       })
              | _ -> fail "unknown endpoint in %s" line
            in
            J.String doc)
          lines
      in
      print_obj [ ("results", J.List results) ]
  | _ -> fail "usage: probe cold REQUESTS.jsonl"

(* ------------------------------------------------------------ calibrate *)

(* The kind of work exploration does (hashing, table growth, short-lived
   allocation) but none of the verifier's code, so a change to the
   verifier cannot change its time. *)
let calibrate = function
  | [ n ] ->
      let n = int_arg n in
      let t0 = now () in
      let h = Hashtbl.create 1024 in
      let x = ref 12345 and hits = ref 0 in
      for i = 1 to n do
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        let k = (!x lsr 10) land 0xfffff in
        match Hashtbl.find_opt h k with
        | Some l -> hits := !hits + List.length l
        | None -> Hashtbl.replace h k [ i; k ]
      done;
      let dt = now () -. t0 in
      print_obj
        [ ("calibration_s", J.Float dt); ("size", J.Int (Hashtbl.length h)); ("hits", J.Int !hits) ]
  | _ -> fail "usage: probe calibrate N"

let trace_mode args =
  match args with
  | "--untraced" :: rest ->
      tracing := false;
      rest
  | _ -> args

let () =
  Nfc_pdl.Pdl.install_loader ();
  match List.tl (Array.to_list Sys.argv) with
  | "setup" :: protos -> List.iter (fun p -> ignore (resolve p)) protos
  | "trace-lint" :: args -> trace_lint (trace_mode args)
  | "trace-boundness" :: args -> trace_boundness (trace_mode args)
  | "trace-stab" :: args -> trace_stab (trace_mode args)
  | "check-reference" :: args -> check_reference args
  | "check-witness" :: args -> check_witness args
  | "check-trace" :: args -> check_trace args
  | "cold" :: args -> cold args
  | "calibrate" :: args -> calibrate args
  | _ ->
      fail
        "usage: probe setup|trace-lint|trace-boundness|trace-stab|check-reference|check-witness|check-trace|cold|calibrate ..."
