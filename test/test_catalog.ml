(** Tests for the vulnerability-class catalog, spec files and lookups. *)

module VC = Wap_catalog.Vuln_class
module Cat = Wap_catalog.Catalog
module SF = Wap_catalog.Spec_file
module Sub = Wap_catalog.Submodule

let test_class_counts () =
  (* 9 detectors for the original tool (the paper counts reflected and
     stored XSS as one class: "eight classes"), 16 for WAPe *)
  Alcotest.(check int) "v2.1 detectors" 9 (List.length VC.wap_v21);
  Alcotest.(check int) "WAPe detectors" 16 (List.length VC.wape);
  Alcotest.(check int) "new classes" 7 (List.length VC.new_in_wape);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (VC.acronym c ^ " is new")
        false (List.mem c VC.wap_v21))
    VC.new_in_wape

let test_acronyms_unique () =
  let acronyms = List.map VC.acronym VC.all_builtin in
  let uniq = List.sort_uniq String.compare acronyms in
  Alcotest.(check int) "unique acronyms" (List.length acronyms) (List.length uniq)

let test_of_acronym () =
  Alcotest.(check bool) "sqli" true (VC.of_acronym "SQLI" = Some VC.Sqli);
  Alcotest.(check bool) "case-insensitive" true (VC.of_acronym "nosqli" = Some VC.Nosqli);
  Alcotest.(check bool) "unknown" true (VC.of_acronym "nope" = None)

let test_report_groups () =
  Alcotest.(check string) "rfi" "Files" (VC.report_group VC.Rfi);
  Alcotest.(check string) "lfi" "Files" (VC.report_group VC.Lfi);
  Alcotest.(check string) "dt" "Files" (VC.report_group VC.Dt_pt);
  Alcotest.(check string) "xss merged" "XSS" (VC.report_group VC.Xss_stored);
  Alcotest.(check string) "wp sqli counts as SQLI" "SQLI" (VC.report_group VC.Wp_sqli);
  Alcotest.(check string) "hi" "HI" (VC.report_group VC.Hi)

let test_submodule_assignment () =
  (* Table IV: SF -> RCE & file; CS -> client-side; LDAPI, XPathI -> query *)
  Alcotest.(check bool) "sf" true (Sub.of_class VC.Sf = Sub.Rce_file);
  Alcotest.(check bool) "cs" true (Sub.of_class VC.Cs = Sub.Client_side);
  Alcotest.(check bool) "ldapi" true (Sub.of_class VC.Ldapi = Sub.Query);
  Alcotest.(check bool) "xpathi" true (Sub.of_class VC.Xpathi = Sub.Query);
  (* every class of a static sub-module maps back to it *)
  List.iter
    (fun sm ->
      List.iter
        (fun c ->
          Alcotest.(check bool) (VC.acronym c) true (Sub.equal (Sub.of_class c) sm))
        (Sub.classes_of sm))
    Sub.all_static

let test_specs_have_sinks () =
  List.iter
    (fun c ->
      let spec = Cat.default_spec c in
      Alcotest.(check bool) (VC.acronym c ^ " has sinks") true (spec.Cat.sinks <> []);
      Alcotest.(check bool)
        (VC.acronym c ^ " has sources")
        true
        (spec.Cat.sources <> []))
    VC.all_builtin

let test_table4_sinks () =
  (* the sinks named in Table IV are present *)
  let has_sink c name =
    let spec = Cat.default_spec c in
    List.exists
      (function Cat.Sink_fn (f, _) -> f = name | _ -> false)
      spec.Cat.sinks
  in
  List.iter
    (fun (c, s) -> Alcotest.(check bool) s true (has_sink c s))
    [ (VC.Sf, "setcookie"); (VC.Sf, "setrawcookie"); (VC.Sf, "session_id");
      (VC.Cs, "file_put_contents"); (VC.Cs, "file_get_contents");
      (VC.Ldapi, "ldap_add"); (VC.Ldapi, "ldap_delete"); (VC.Ldapi, "ldap_list");
      (VC.Ldapi, "ldap_read"); (VC.Ldapi, "ldap_search");
      (VC.Xpathi, "xpath_eval"); (VC.Xpathi, "xptr_eval");
      (VC.Xpathi, "xpath_eval_expression");
      (VC.Hi, "header"); (VC.Ei, "mail") ]

let test_nosqli_spec () =
  (* Section IV-C1: Mongo sinks + mysql_real_escape_string sanitizer *)
  let spec = Cat.default_spec VC.Nosqli in
  let has_method m =
    List.exists
      (function Cat.Sink_method (_, m') -> String.lowercase_ascii m' = m | _ -> false)
      spec.Cat.sinks
  in
  List.iter
    (fun m -> Alcotest.(check bool) m true (has_method m))
    [ "find"; "findone"; "findandmodify"; "insert"; "remove"; "save"; "execute" ];
  Alcotest.(check bool) "sanitizer" true
    (List.mem (Cat.San_fn "mysql_real_escape_string") spec.Cat.sanitizers)

let test_lookup () =
  let lookup = Cat.Lookup.of_specs [ Cat.default_spec VC.Sqli ] in
  Alcotest.(check (list int)) "superglobal" [ 0 ]
    (Cat.Lookup.superglobal_ids lookup "_GET");
  Alcotest.(check (list int)) "not a superglobal" []
    (Cat.Lookup.superglobal_ids lookup "data");
  Alcotest.(check bool) "sink" true
    (Cat.Lookup.sink_fn_entries lookup "mysql_query" <> []);
  Alcotest.(check bool) "sink case-insensitive" true
    (Cat.Lookup.sink_fn_entries lookup "MYSQL_QUERY" <> []);
  Alcotest.(check (list int)) "sanitizer" [ 0 ]
    (Cat.Lookup.sanitizer_fn_ids lookup "mysql_real_escape_string");
  Alcotest.(check (list int)) "not sanitizer" []
    (Cat.Lookup.sanitizer_fn_ids lookup "trim")

let test_wpdb_lookup () =
  let lookup = Cat.Lookup.of_specs [ Cat.default_spec VC.Wp_sqli ] in
  Alcotest.(check (list int)) "wpdb->query sink" [ 0 ]
    (Cat.Lookup.sink_method_ids lookup "wpdb" "query");
  Alcotest.(check (list int)) "wpdb->prepare sanitizer" [ 0 ]
    (Cat.Lookup.sanitizer_method_ids lookup "wpdb" "prepare")

(* ------------------------------------------------------------------ *)
(* Spec files.                                                         *)

let test_spec_file_round_trip () =
  List.iter
    (fun c ->
      let spec = Cat.default_spec c in
      let text = SF.to_string spec in
      let back = SF.spec_of_string ~vclass:c text in
      Alcotest.(check bool)
        (VC.acronym c ^ " sinks round-trip")
        true
        (back.Cat.sinks = spec.Cat.sinks);
      Alcotest.(check bool)
        (VC.acronym c ^ " sanitizers round-trip")
        true
        (back.Cat.sanitizers = spec.Cat.sanitizers);
      Alcotest.(check bool)
        (VC.acronym c ^ " sources round-trip")
        true
        (back.Cat.sources = spec.Cat.sources))
    VC.all_builtin

let test_spec_file_parse () =
  let src, sinks, sans =
    SF.parse
      "# comment\n\
       entry: _GET\n\
       entry_fn: my_source\n\
       sink: mysql_query\n\
       sink: mysqli_query args=1,2\n\
       sink_method: wpdb query\n\
       sink_echo:\n\
       sink_include:\n\
       sanitizer: esc_sql\n\
       sanitizer_method: wpdb prepare\n"
  in
  Alcotest.(check int) "sources" 2 (List.length src);
  Alcotest.(check int) "sinks" 5 (List.length sinks);
  Alcotest.(check int) "sanitizers" 2 (List.length sans);
  Alcotest.(check bool) "args parsed" true
    (List.mem (Cat.Sink_fn ("mysqli_query", [ 1; 2 ])) sinks)

let test_spec_file_errors () =
  let bad line =
    try
      ignore (SF.parse line);
      false
    with SF.Parse_error _ -> true
  in
  Alcotest.(check bool) "no colon" true (bad "just words\n");
  Alcotest.(check bool) "bad kind" true (bad "sinkz: foo\n");
  Alcotest.(check bool) "bad args" true (bad "sink: f argz=1\n")

let test_wordpress_dynamic_symptoms_valid () =
  List.iter
    (fun (fn, static) ->
      let ok =
        Wap_mining.Symptom.is_symptom static
        || static = "user_white_list" || static = "user_black_list"
      in
      Alcotest.(check bool) (fn ^ " -> " ^ static) true ok)
    Wap_catalog.Wordpress.dynamic_symptoms

let qcheck_spec_file_round_trip =
  QCheck.Test.make ~name:"spec file round trips arbitrary identifiers" ~count:100
    QCheck.(pair (string_gen_of_size (Gen.int_range 1 12) (Gen.char_range 'a' 'z'))
              (string_gen_of_size (Gen.int_range 1 12) (Gen.char_range 'a' 'z')))
    (fun (f1, f2) ->
      let spec =
        { Cat.vclass = VC.Custom "q"; submodule = Sub.Generated "q";
          sources = [ Cat.Src_fn f1 ];
          sinks = [ Cat.Sink_fn (f2, [ 0 ]); Cat.Sink_method (f1, f2) ];
          sanitizers = [ Cat.San_fn f1 ] }
      in
      let back = SF.spec_of_string ~vclass:(VC.Custom "q") (SF.to_string spec) in
      back.Cat.sinks = spec.Cat.sinks && back.Cat.sanitizers = spec.Cat.sanitizers)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wap_catalog"
    [
      ( "classes",
        [
          Alcotest.test_case "class counts" `Quick test_class_counts;
          Alcotest.test_case "acronyms unique" `Quick test_acronyms_unique;
          Alcotest.test_case "of_acronym" `Quick test_of_acronym;
          Alcotest.test_case "report groups" `Quick test_report_groups;
          Alcotest.test_case "submodule assignment (Table IV)" `Quick
            test_submodule_assignment;
        ] );
      ( "specs",
        [
          Alcotest.test_case "all specs have sinks" `Quick test_specs_have_sinks;
          Alcotest.test_case "Table IV sinks present" `Quick test_table4_sinks;
          Alcotest.test_case "NoSQLI weapon spec" `Quick test_nosqli_spec;
          Alcotest.test_case "lookup" `Quick test_lookup;
          Alcotest.test_case "wpdb lookup" `Quick test_wpdb_lookup;
        ] );
      ( "spec files",
        [
          Alcotest.test_case "default specs round-trip" `Quick test_spec_file_round_trip;
          Alcotest.test_case "parse all line kinds" `Quick test_spec_file_parse;
          Alcotest.test_case "parse errors" `Quick test_spec_file_errors;
          Alcotest.test_case "wordpress dynamic symptoms valid" `Quick
            test_wordpress_dynamic_symptoms_valid;
          qt qcheck_spec_file_round_trip;
        ] );
    ]
