(** Tests for the data-mining stack: symptoms, evidence, attributes,
    datasets, metrics and the classifiers. *)

module Sym = Wap_mining.Symptom
module Ev = Wap_mining.Evidence
module At = Wap_mining.Attributes
module DS = Wap_mining.Dataset
module M = Wap_mining.Metrics
module VC = Wap_catalog.Vuln_class

(* ------------------------------------------------------------------ *)
(* Symptoms (Table I).                                                 *)

let test_symptom_counts () =
  Alcotest.(check int) "60 symptoms" 60 Sym.count;
  Alcotest.(check int) "61 attributes with class" 61 (At.paper_count At.Extended);
  Alcotest.(check int) "16 attributes originally" 16 (At.paper_count At.Original);
  Alcotest.(check int) "15 original groups" 15 (List.length Sym.original_groups)

let test_symptom_groups_consistent () =
  List.iter
    (fun (s : Sym.t) ->
      Alcotest.(check bool)
        (s.Sym.name ^ " group known")
        true
        (List.mem s.Sym.group Sym.original_groups))
    Sym.all

let test_original_symptom_set () =
  (* a few spot checks against Table I's left columns *)
  let orig s = match Sym.find s with Some x -> x.Sym.original | None -> false in
  List.iter (fun s -> Alcotest.(check bool) (s ^ " original") true (orig s))
    [ "is_int"; "isset"; "preg_match"; "substr"; "concat_op"; "trim";
      "complex_sql"; "is_num"; "from"; "avg"; "str_replace" ];
  List.iter (fun s -> Alcotest.(check bool) (s ^ " new") false (orig s))
    [ "is_integer"; "empty"; "strcmp"; "explode"; "implode"; "str_pad";
      "ltrim"; "count"; "min"; "preg_split" ]

let test_of_function_name () =
  Alcotest.(check (option string)) "direct" (Some "trim") (Sym.of_function_name "TRIM");
  Alcotest.(check (option string)) "(int) cast" (Some "intval") (Sym.of_function_name "(int)");
  Alcotest.(check (option string)) "die" (Some "exit") (Sym.of_function_name "die");
  Alcotest.(check (option string)) "error fns" (Some "error")
    (Sym.of_function_name "trigger_error");
  Alcotest.(check (option string)) "in_array is a whitelist" (Some "user_white_list")
    (Sym.of_function_name "in_array");
  Alcotest.(check (option string)) "unknown" None (Sym.of_function_name "md5")

let test_dynamic_symptoms () =
  let map = [ ("val_int", "is_int"); ("my_clean", "user_white_list") ] in
  Alcotest.(check (option string)) "mapped" (Some "is_int")
    (Sym.resolve_dynamic map "VAL_INT");
  Alcotest.(check (option string)) "unmapped" None (Sym.resolve_dynamic map "other")

(* ------------------------------------------------------------------ *)
(* Evidence collection.                                                *)

let candidate_of ?(vclass = VC.Sqli) src =
  let program = Wap_php.Parser.parse_string ~file:"t.php" ("<?php\n" ^ src) in
  match
    Wap_taint.Analyzer.analyze_program
      ~spec:(Wap_catalog.Catalog.default_spec vclass) ~file:"t.php" program
  with
  | c :: _ -> c
  | [] -> Alcotest.fail "no candidate"

let test_evidence_validation_and_sql () =
  let c =
    candidate_of
      "$id = $_GET['id'];\nif (!is_numeric($id)) { die('x'); }\n\
       mysql_query('SELECT COUNT(*) FROM t JOIN u ON 1 WHERE id = ' . $id . ' LIMIT 1');"
  in
  let ev = Ev.collect c in
  List.iter
    (fun s -> Alcotest.(check bool) s true (Ev.mem s ev))
    [ "is_numeric"; "exit"; "concat_op"; "from"; "count"; "complex_sql"; "is_num" ]

let test_evidence_dynamic_map () =
  let c =
    candidate_of
      "$v = val_int($_GET['v']);\nmysql_query('SELECT * FROM t WHERE v = ' . $v);"
  in
  let without = Ev.collect c in
  Alcotest.(check bool) "unmapped user fn invisible" false (Ev.mem "is_int" without);
  let with_map = Ev.collect ~dynamic:[ ("val_int", "is_int") ] c in
  Alcotest.(check bool) "mapped user fn visible" true (Ev.mem "is_int" with_map)

let test_evidence_sql_only_for_query_classes () =
  let c = candidate_of ~vclass:VC.Xss_reflected "echo 'SELECT x FROM t' . $_GET['m'];" in
  Alcotest.(check bool) "no FROM symptom for XSS" false (Ev.mem "from" (Ev.collect c))

let test_sql_symptom_details () =
  let parse_expr s = Wap_php.Parser.parse_expression s in
  let syms args = Ev.sql_symptoms (List.map parse_expr args) in
  Alcotest.(check bool) "avg" true (List.mem "avg" (syms [ "\"SELECT AVG(x) FROM t\"" ]));
  Alcotest.(check bool) "numeric position" true
    (List.mem "is_num" (syms [ "'UPDATE t SET a = 1 WHERE id = ' . $x" ]));
  Alcotest.(check bool) "quoted is not numeric" false
    (List.mem "is_num" (syms [ "\"SELECT * FROM t WHERE id = 'abc'\"" ]));
  Alcotest.(check bool) "nested select is complex" true
    (List.mem "complex_sql"
       (syms [ "'SELECT * FROM t WHERE id IN (SELECT id FROM u)' . $x" ]))

(* ------------------------------------------------------------------ *)
(* Attributes.                                                         *)

let test_attribute_vectors () =
  let ev = Ev.of_names [ "is_int"; "preg_match"; "trim" ] in
  let ext = At.vector_of_evidence At.Extended ev in
  Alcotest.(check int) "extended length" 60 (Array.length ext);
  Alcotest.(check int) "three bits set" 3
    (Array.fold_left (fun n f -> if f > 0.5 then n + 1 else n) 0 ext);
  let orig = At.vector_of_evidence At.Original ev in
  Alcotest.(check int) "original length" 15 (Array.length orig);
  (* is_int -> type_checking, preg_match -> pattern_control, trim -> remove_whitespace *)
  Alcotest.(check int) "three groups set" 3
    (Array.fold_left (fun n f -> if f > 0.5 then n + 1 else n) 0 orig)

let test_original_mode_ignores_new_symptoms () =
  (* strcmp is a new symptom: the original encoding must not see it *)
  let ev = Ev.of_names [ "strcmp" ] in
  let orig = At.vector_of_evidence At.Original ev in
  Alcotest.(check int) "invisible to original" 0
    (Array.fold_left (fun n f -> if f > 0.5 then n + 1 else n) 0 orig);
  let ext = At.vector_of_evidence At.Extended ev in
  Alcotest.(check int) "visible to extended" 1
    (Array.fold_left (fun n f -> if f > 0.5 then n + 1 else n) 0 ext)

(* ------------------------------------------------------------------ *)
(* Datasets.                                                           *)

let mk_instance bits label =
  { DS.features = Array.of_list (List.map float_of_int bits); label }

let test_dataset_dedup () =
  let d =
    DS.make ~mode:At.Extended
      [ mk_instance [ 1; 0 ] true; mk_instance [ 1; 0 ] true;
        mk_instance [ 0; 1 ] false;
        (* ambiguous pair: must be dropped entirely *)
        mk_instance [ 1; 1 ] true; mk_instance [ 1; 1 ] false ]
  in
  let dd = DS.deduplicate d in
  Alcotest.(check int) "kept" 2 (DS.size dd);
  Alcotest.(check int) "one FP" 1 (DS.positives dd)

let test_dataset_balance_and_split () =
  let d =
    DS.make ~mode:At.Extended
      (List.init 10 (fun i -> mk_instance [ i; 0 ] true)
      @ List.init 4 (fun i -> mk_instance [ i; 1 ] false))
  in
  let b = DS.balance d in
  Alcotest.(check int) "balanced size" 8 (DS.size b);
  Alcotest.(check int) "balanced positives" 4 (DS.positives b);
  let s = DS.take_split ~fp:3 ~rv:2 d in
  Alcotest.(check int) "split fp" 3 (DS.positives s);
  Alcotest.(check int) "split rv" 2 (DS.negatives s)

let test_stratified_folds () =
  let d =
    DS.make ~mode:At.Extended
      (List.init 20 (fun i -> mk_instance [ i ] (i mod 2 = 0)))
  in
  let folds = DS.stratified_folds ~k:5 d in
  Alcotest.(check int) "5 folds" 5 (List.length folds);
  List.iter
    (fun (train, test) ->
      Alcotest.(check int) "test size" 4 (DS.size test);
      Alcotest.(check int) "train size" 16 (DS.size train);
      Alcotest.(check int) "test balanced" 2 (DS.positives test))
    folds;
  (* each instance appears in exactly one test fold *)
  let total_test = List.fold_left (fun n (_, t) -> n + DS.size t) 0 folds in
  Alcotest.(check int) "partition" 20 total_test

let test_csv_round_trip () =
  let dim = At.arity At.Extended in
  let bits k = List.init dim (fun i -> if i mod 3 = k then 1 else 0) in
  let d =
    DS.make ~mode:At.Extended [ mk_instance (bits 0) true; mk_instance (bits 1) false ]
  in
  let csv = DS.to_csv d in
  (match DS.of_csv ~mode:At.Extended csv with
  | Error e -> Alcotest.failf "round trip rejected: %s" e
  | Ok back ->
      Alcotest.(check int) "size" 2 (DS.size back);
      Alcotest.(check int) "positives" 1 (DS.positives back);
      Alcotest.(check string) "same text" csv (DS.to_csv back));
  (* one malformed input per check, each named by its line *)
  let header, rows =
    match String.split_on_char '\n' csv with
    | h :: r1 :: r2 :: _ -> (h, [ r1; r2 ])
    | _ -> Alcotest.fail "unexpected csv shape"
  in
  let rejects name ?(mode = At.Extended) text expected =
    match DS.of_csv ~mode text with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e -> Alcotest.(check string) name expected e
  in
  let csv_of lines = String.concat "\n" lines ^ "\n" in
  let row1 = List.hd rows and row2 = List.nth rows 1 in
  rejects "empty file" "" "line 1: no header row";
  rejects "header only" (csv_of [ header ]) "line 1: no instance rows after the header";
  rejects "other mode's header" ~mode:At.Original csv
    "line 1: header has 61 columns, expected 16 (the attribute names, then class)";
  rejects "renamed header column"
    (csv_of [ "x" ^ header; row1 ])
    "line 1: header column \"xis_string\", expected \"is_string\"";
  let short = String.sub row1 2 (String.length row1 - 2) in
  rejects "row one cell short" (csv_of [ header; row1; short ])
    "line 3: 60 cells, expected 61";
  rejects "non-binary cell"
    (csv_of [ header; ""; "x" ^ String.sub row2 1 (String.length row2 - 1) ])
    "line 3: column 1 (is_string) is \"x\", expected 0 or 1";
  let relabel row l = String.sub row 0 (String.length row - 2) ^ l in
  rejects "unknown label" (csv_of [ header; row1; relabel row2 "yes" ])
    "line 3: class is \"yes\", expected FP or RV"

(* ------------------------------------------------------------------ *)
(* Metrics: reproduce Table II's numbers from Table III's matrices.    *)

let paper_svm = { M.tp = 121; fp = 6; fn = 7; tn = 122 }
let paper_lr = { M.tp = 119; fp = 6; fn = 9; tn = 122 }
let paper_rf = { M.tp = 116; fp = 3; fn = 12; tn = 125 }

let near name expected actual =
  Alcotest.(check (float 0.11)) name expected (M.pct actual)

let test_metrics_svm () =
  near "tpp" 94.5 (M.tpp paper_svm);
  near "pfp" 4.7 (M.pfp paper_svm);
  near "prfp" 95.3 (M.prfp paper_svm);
  near "pd" 95.3 (M.pd paper_svm);
  near "ppd" 94.6 (M.ppd paper_svm);
  near "acc" 94.9 (M.acc paper_svm);
  near "pr" 94.9 (M.pr paper_svm)

let test_metrics_lr () =
  near "tpp" 93.0 (M.tpp paper_lr);
  near "acc" 94.1 (M.acc paper_lr);
  near "pfp" 4.7 (M.pfp paper_lr)

let test_metrics_rf () =
  near "tpp" 90.6 (M.tpp paper_rf);
  near "pfp" 2.3 (M.pfp paper_rf);
  near "prfp" 97.5 (M.prfp paper_rf);
  near "pd" 97.7 (M.pd paper_rf);
  near "acc" 94.1 (M.acc paper_rf)

let test_metric_identities () =
  List.iter
    (fun c ->
      Alcotest.(check (float 1e-9)) "inform = tpp - pfp" (M.tpp c -. M.pfp c) (M.inform c);
      Alcotest.(check bool) "acc in [0,1]" true (M.acc c >= 0.0 && M.acc c <= 1.0);
      Alcotest.(check bool) "jacc <= tpp" true (M.jacc c <= M.tpp c +. 1e-9))
    [ paper_svm; paper_lr; paper_rf ]

let test_confusion_observe () =
  let c = M.empty in
  let c = M.observe c ~predicted:true ~actual:true in
  let c = M.observe c ~predicted:true ~actual:false in
  let c = M.observe c ~predicted:false ~actual:true in
  let c = M.observe c ~predicted:false ~actual:false in
  Alcotest.(check bool) "all cells" true (c = { M.tp = 1; fp = 1; fn = 1; tn = 1 });
  Alcotest.(check int) "total" 4 (M.total c)

(* ------------------------------------------------------------------ *)
(* Classifiers.                                                        *)

(* A linearly separable toy problem: label = attribute 0. *)
let separable n =
  DS.make ~mode:At.Extended
    (List.init n (fun i ->
         let bit = i mod 2 in
         mk_instance [ bit; 1 - bit; (i / 2) mod 2 ] (bit = 1)))

(* XOR of attributes 0 and 1: not linearly separable. *)
let xor_data n =
  DS.make ~mode:At.Extended
    (List.init n (fun i ->
         let a = i mod 2 and b = (i / 2) mod 2 in
         mk_instance [ a; b ] (a <> b)))

let accuracy_of predict (d : DS.t) =
  let ok =
    List.length
      (List.filter (fun (i : DS.instance) -> predict i.DS.features = i.DS.label)
         d.DS.instances)
  in
  float_of_int ok /. float_of_int (DS.size d)

let test_all_classifiers_learn_separable () =
  let d = separable 64 in
  List.iter
    (fun (algo : Wap_mining.Classifier.algorithm) ->
      let m = algo.Wap_mining.Classifier.train ~seed:7 d in
      Alcotest.(check (float 0.01))
        (algo.Wap_mining.Classifier.algo_name ^ " separable accuracy")
        1.0
        (accuracy_of (Wap_mining.Classifier.predict m) d))
    Wap_mining.Evaluation.default_pool

let test_trees_learn_xor () =
  let d = xor_data 64 in
  List.iter
    (fun (algo : Wap_mining.Classifier.algorithm) ->
      let m = algo.Wap_mining.Classifier.train ~seed:7 d in
      Alcotest.(check (float 0.01))
        (algo.Wap_mining.Classifier.algo_name ^ " xor accuracy")
        1.0
        (accuracy_of (Wap_mining.Classifier.predict m) d))
    [ Wap_mining.Decision_tree.algorithm; Wap_mining.Random_forest.algorithm;
      Wap_mining.Knn.algorithm ]

let test_scores_in_range () =
  let d = separable 32 in
  List.iter
    (fun (algo : Wap_mining.Classifier.algorithm) ->
      let m = algo.Wap_mining.Classifier.train ~seed:7 d in
      List.iter
        (fun (i : DS.instance) ->
          let s = Wap_mining.Classifier.score m i.DS.features in
          Alcotest.(check bool)
            (algo.Wap_mining.Classifier.algo_name ^ " score in [0,1]")
            true
            (s >= 0.0 && s <= 1.0))
        d.DS.instances)
    Wap_mining.Evaluation.default_pool

let test_training_deterministic () =
  let d = separable 64 in
  List.iter
    (fun (algo : Wap_mining.Classifier.algorithm) ->
      let m1 = algo.Wap_mining.Classifier.train ~seed:13 d in
      let m2 = algo.Wap_mining.Classifier.train ~seed:13 d in
      List.iter
        (fun (i : DS.instance) ->
          Alcotest.(check bool)
            (algo.Wap_mining.Classifier.algo_name ^ " deterministic")
            (Wap_mining.Classifier.predict m1 i.DS.features)
            (Wap_mining.Classifier.predict m2 i.DS.features))
        d.DS.instances)
    Wap_mining.Evaluation.default_pool

let test_tree_structure () =
  let d = separable 32 in
  let t = Wap_mining.Decision_tree.train ~seed:3 d in
  Alcotest.(check bool) "depth >= 1" true (Wap_mining.Decision_tree.depth_of t.root >= 1);
  Alcotest.(check bool) "has nodes" true (Wap_mining.Decision_tree.nodes_of t.root >= 3)

let test_cross_validation_covers_all () =
  let d = separable 50 in
  let conf =
    Wap_mining.Evaluation.cross_validate ~k:10 ~seed:3 Wap_mining.Logistic.algorithm d
  in
  Alcotest.(check int) "every instance tested once" 50 (M.total conf)

let test_top3_selection () =
  let d = separable 60 in
  let top = Wap_mining.Evaluation.top3 ~seed:3 d in
  Alcotest.(check int) "three selected" 3 (List.length top)

(* Pinned models: the MD5 of a [%h] dump of every trained parameter
   (linear weights and bias; trees in preorder), so a change in any
   rounding fails here even when no verdict moves.  The literals come
   from the dense, list-based loops the sparse ones must match. *)

module DT = Wap_mining.Decision_tree

let dump_linear b weights bias =
  Array.iter (Printf.bprintf b "%h ") weights;
  Printf.bprintf b "| %h\n" bias

let rec dump_node b = function
  | DT.Leaf p -> Printf.bprintf b "L%h " p
  | DT.Split (idx, zero, one) ->
      Printf.bprintf b "S%d " idx;
      dump_node b zero;
      dump_node b one

let dump_tree b (t : DT.t) =
  dump_node b t.DT.root;
  Buffer.add_char b '\n'

let dump_model b ~seed d = function
  | "Logistic Regression" ->
      let m = Wap_mining.Logistic.train d in
      dump_linear b m.Wap_mining.Logistic.weights m.Wap_mining.Logistic.bias
  | "SVM" ->
      let m = Wap_mining.Svm.train ~seed d in
      dump_linear b m.Wap_mining.Svm.weights m.Wap_mining.Svm.bias
  | "Random Forest" ->
      Array.iter (dump_tree b) (Wap_mining.Random_forest.train ~seed d).trees
  | "Random Tree" -> dump_tree b (Wap_mining.Random_tree.train ~seed d)
  | "Decision Tree" -> dump_tree b (DT.train ~seed d)
  | name -> Alcotest.failf "no parameter dump for %s" name

let models_digest ~seed d names =
  let b = Buffer.create 65536 in
  List.iter (dump_model b ~seed d) names;
  Digest.to_hex (Digest.string (Buffer.contents b))

let algo_names (c : Wap_mining.Predictor.config) =
  List.map
    (fun (a : Wap_mining.Classifier.algorithm) -> a.Wap_mining.Classifier.algo_name)
    c.Wap_mining.Predictor.algorithms

(* features outside {0, 1}: 0.5 sits on the split threshold, and the
   linear models multiply by every value *)
let off_binary_set () =
  let values = [| -1.0; 0.0; 0.25; 0.5; 1.0; 2.0 |] in
  DS.make ~mode:At.Extended
    (List.init 48 (fun i ->
         {
           DS.features = Array.init 6 (fun j -> values.(((i * (j + 1)) + j) mod 6));
           label = (i * 7) mod 5 < 2;
         }))

let wape_ensemble_digest = "60f65c801c80b0b2fd1420a769e46e07"
let v21_ensemble_digest = "d9348a5191f79240997d7a4a2eebb6a1"

let test_pinned_models () =
  let seed = Wap_core.Training.frozen_seed in
  let wape = Wap_core.Training.dataset_for Wap_core.Version.Wape in
  let v21 = Wap_core.Training.dataset_for Wap_core.Version.Wap_v21 in
  let pin name d names expected =
    Alcotest.(check string) name expected (models_digest ~seed d names)
  in
  pin "WAPe ensemble (SVM, LR, RF)" wape
    (algo_names Wap_mining.Predictor.extended_config)
    wape_ensemble_digest;
  pin "v2.1 ensemble (LR, Random Tree, SVM)" v21
    (algo_names Wap_mining.Predictor.original_config)
    v21_ensemble_digest;
  pin "CART on the WAPe set" wape [ "Decision Tree" ]
    "a5520e3f8dfc1c474f7977e07210682b";
  pin "off-binary features" (off_binary_set ())
    [ "Logistic Regression"; "SVM"; "Decision Tree"; "Random Tree"; "Random Forest" ]
    "87d633c69f886257f3949289888d9f00"

(* The ensembles the library ships, trained when it was built, are the
   pinned ones bit for bit: their parameters, dumped in each config's
   algorithm order, give the digests above. *)
let test_frozen_models () =
  let module F = Wap_core.Frozen_models in
  let module L = Wap_mining.Logistic in
  let module S = Wap_mining.Svm in
  let digest names dumps =
    let b = Buffer.create 65536 in
    List.iter
      (fun name ->
        match List.assoc_opt name dumps with
        | Some dump -> dump b
        | None -> Alcotest.failf "no frozen %s" name)
      names;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  Alcotest.(check string) "WAPe ensemble (SVM, LR, RF)" wape_ensemble_digest
    (digest
       (algo_names Wap_mining.Predictor.extended_config)
       [ ("SVM", fun b -> dump_linear b F.wape_svm.S.weights F.wape_svm.S.bias);
         ( "Logistic Regression",
           fun b -> dump_linear b F.wape_logistic.L.weights F.wape_logistic.L.bias );
         ( "Random Forest",
           fun b -> Array.iter (dump_tree b) F.wape_random_forest.Wap_mining.Random_forest.trees
         ) ]);
  Alcotest.(check string) "v2.1 ensemble (LR, Random Tree, SVM)" v21_ensemble_digest
    (digest
       (algo_names Wap_mining.Predictor.original_config)
       [ ( "Logistic Regression",
           fun b -> dump_linear b F.v21_logistic.L.weights F.v21_logistic.L.bias );
         ("Random Tree", fun b -> dump_tree b F.v21_random_tree);
         ("SVM", fun b -> dump_linear b F.v21_svm.S.weights F.v21_svm.S.bias) ])

(* ------------------------------------------------------------------ *)
(* Predictor.                                                          *)

let test_predictor_triage () =
  let fp_cand =
    candidate_of
      "$v = $_GET['v'];\nif (!is_numeric($v)) { die('x'); }\n$v = intval($v);\nmysql_query('SELECT * FROM t WHERE v = ' . $v);"
  in
  let real_cand =
    candidate_of "$v = $_GET['v'];\nmysql_query(\"SELECT * FROM t WHERE v = '$v'\");"
  in
  let d = Wap_core.Training.dataset_for ~seed:2016 Wap_core.Version.Wape in
  let p = Wap_mining.Predictor.train ~seed:2016 Wap_mining.Predictor.extended_config d in
  Alcotest.(check bool) "guarded flow predicted FP" true
    (Wap_mining.Predictor.is_false_positive p fp_cand);
  Alcotest.(check bool) "raw flow predicted real" false
    (Wap_mining.Predictor.is_false_positive p real_cand);
  let fps, reals = Wap_mining.Predictor.triage p [ fp_cand; real_cand ] in
  Alcotest.(check int) "one of each" 1 (List.length fps);
  Alcotest.(check int) "one real" 1 (List.length reals);
  Alcotest.(check bool) "justification mentions the guard" true
    (List.mem "is_numeric" (Wap_mining.Predictor.justification p fp_cand))

(* The ensemble trains at the first classification.  Four domains making
   that first classification on one shared predictor must each get the
   sequential verdicts; with a bare [lazy], a domain arriving while
   another one trains raises [CamlinternalLazy.Undefined]. *)
let test_predictor_concurrent_first_use () =
  let cands =
    [ candidate_of
        "$v = $_GET['v'];\nif (!is_numeric($v)) { die('x'); }\n$v = intval($v);\nmysql_query('SELECT * FROM t WHERE v = ' . $v);";
      candidate_of "$v = $_GET['v'];\nmysql_query(\"SELECT * FROM t WHERE v = '$v'\");" ]
  in
  let d = Wap_core.Training.dataset_for Wap_core.Version.Wape in
  let fresh () =
    Wap_mining.Predictor.train ~seed:Wap_core.Training.frozen_seed
      Wap_mining.Predictor.extended_config d
  in
  let verdicts p = List.map (Wap_mining.Predictor.is_false_positive p) cands in
  let expected = verdicts (fresh ()) in
  let shared = fresh () in
  List.init 4 (fun _ -> Domain.spawn (fun () -> verdicts shared))
  |> List.iteri (fun i dom ->
         Alcotest.(check (list bool))
           (Printf.sprintf "domain %d verdicts" i)
           expected (Domain.join dom))

let test_predictor_mode_mismatch () =
  let d = DS.make ~mode:At.Original [ mk_instance [ 1 ] true ] in
  Alcotest.check_raises "mode mismatch"
    (Invalid_argument "Predictor.train: dataset attribute mode mismatch")
    (fun () ->
      ignore
        (Wap_mining.Predictor.train ~seed:Wap_core.Training.frozen_seed
           Wap_mining.Predictor.extended_config d))

(* [of_models] takes one model per algorithm of the config, in its
   order: the v2.1 ensemble is not a WAPe one. *)
let test_predictor_of_models_mismatch () =
  Alcotest.check_raises "other ensemble"
    (Invalid_argument "Predictor.of_models: models do not match the config's algorithms")
    (fun () ->
      ignore
        (Wap_mining.Predictor.of_models Wap_mining.Predictor.extended_config
           Wap_core.Frozen_models.v21))

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)

let qcheck_dedup_idempotent =
  QCheck.Test.make ~name:"dedup is idempotent" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 40) (pair (list_of_size (Gen.return 4) bool) bool))
    (fun raw ->
      let d =
        DS.make ~mode:At.Extended
          (List.map
             (fun (bits, label) ->
               mk_instance (List.map (fun b -> if b then 1 else 0) bits) label)
             raw)
      in
      let once = DS.deduplicate d in
      let twice = DS.deduplicate once in
      DS.size once = DS.size twice)

let qcheck_folds_partition =
  QCheck.Test.make ~name:"folds partition the data" ~count:50
    QCheck.(int_range 4 60)
    (fun n ->
      let d = separable n in
      let folds = DS.stratified_folds ~k:4 d in
      List.fold_left (fun acc (_, t) -> acc + DS.size t) 0 folds = DS.size d)

let qcheck_metrics_bounded =
  QCheck.Test.make ~name:"all metrics bounded" ~count:200
    QCheck.(quad (int_bound 50) (int_bound 50) (int_bound 50) (int_bound 50))
    (fun (tp, fp, fn, tn) ->
      let c = { M.tp; fp; fn; tn } in
      List.for_all
        (fun { M.metric = _; value } -> value >= -1.0 && value <= 1.0)
        (M.all_metrics c))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wap_mining"
    [
      ( "symptoms",
        [
          Alcotest.test_case "counts" `Quick test_symptom_counts;
          Alcotest.test_case "groups consistent" `Quick test_symptom_groups_consistent;
          Alcotest.test_case "original flags" `Quick test_original_symptom_set;
          Alcotest.test_case "function name mapping" `Quick test_of_function_name;
          Alcotest.test_case "dynamic symptoms" `Quick test_dynamic_symptoms;
        ] );
      ( "evidence",
        [
          Alcotest.test_case "validation + SQL" `Quick test_evidence_validation_and_sql;
          Alcotest.test_case "dynamic map" `Quick test_evidence_dynamic_map;
          Alcotest.test_case "SQL symptoms only for query classes" `Quick
            test_evidence_sql_only_for_query_classes;
          Alcotest.test_case "sql details" `Quick test_sql_symptom_details;
        ] );
      ( "attributes",
        [
          Alcotest.test_case "vectors" `Quick test_attribute_vectors;
          Alcotest.test_case "original ignores new symptoms" `Quick
            test_original_mode_ignores_new_symptoms;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "dedup + ambiguity" `Quick test_dataset_dedup;
          Alcotest.test_case "balance and split" `Quick test_dataset_balance_and_split;
          Alcotest.test_case "stratified folds" `Quick test_stratified_folds;
          Alcotest.test_case "csv round trip" `Quick test_csv_round_trip;
        ] );
      ( "metrics (paper formulas)",
        [
          Alcotest.test_case "SVM column of Table II" `Quick test_metrics_svm;
          Alcotest.test_case "LR column of Table II" `Quick test_metrics_lr;
          Alcotest.test_case "RF column of Table II" `Quick test_metrics_rf;
          Alcotest.test_case "identities" `Quick test_metric_identities;
          Alcotest.test_case "confusion observe" `Quick test_confusion_observe;
        ] );
      ( "classifiers",
        [
          Alcotest.test_case "all learn separable data" `Quick
            test_all_classifiers_learn_separable;
          Alcotest.test_case "trees learn XOR" `Quick test_trees_learn_xor;
          Alcotest.test_case "scores in range" `Quick test_scores_in_range;
          Alcotest.test_case "deterministic training" `Quick test_training_deterministic;
          Alcotest.test_case "tree structure" `Quick test_tree_structure;
          Alcotest.test_case "cross-validation coverage" `Quick
            test_cross_validation_covers_all;
          Alcotest.test_case "top-3 selection" `Quick test_top3_selection;
          Alcotest.test_case "pinned models" `Quick test_pinned_models;
          Alcotest.test_case "frozen models are the pinned ones" `Quick
            test_frozen_models;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "triage" `Slow test_predictor_triage;
          Alcotest.test_case "concurrent first classification" `Quick
            test_predictor_concurrent_first_use;
          Alcotest.test_case "mode mismatch" `Quick test_predictor_mode_mismatch;
          Alcotest.test_case "of_models mismatch" `Quick
            test_predictor_of_models_mismatch;
        ] );
      ( "properties",
        [ qt qcheck_dedup_idempotent; qt qcheck_folds_partition; qt qcheck_metrics_bounded ] );
    ]
