(** Creating a weapon (Section III-D / IV-C1): the NoSQL-injection
    detector for MongoDB, generated from plain configuration data — no
    programming — then saved, reloaded and used on a MongoDB-backed
    application.

    Run with: [dune exec examples/nosqli_weapon.exe] *)

let mongo_app =
  {php|<?php
$m = new MongoClient();
$db = $m->selectDB('shop');
$collection = $db->users;

// vulnerable: attacker-controlled filter reaches find()
$login = $_POST['login'];
$doc = $collection->find(array('login' => $login));

// vulnerable through string building
$sid = $_COOKIE['sid'];
$collection->remove(array('session' => $sid));

// protected: the weapon's sanitization function kills the flow
$safe = mysql_real_escape_string($_POST['q']);
$doc2 = $collection->findOne(array('q' => $safe));
|php}

let () =
  print_endline "=== weapon generation: -nosqli ===\n";

  (* the configuration a user would supply: sinks, sanitizer, fix *)
  let request = Wap_weapon.Generator.nosqli_request in
  let weapon = Wap_weapon.Generator.generate request in
  print_endline (Wap_weapon.Weapon.describe weapon);

  (* weapons round-trip through their on-disk ep/ss/san representation *)
  let dir = Filename.temp_file "wap" "weapons" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Wap_weapon.Store.save ~dir weapon;
  let weapon = Wap_weapon.Store.load ~dir ~name:"nosqli" in
  Printf.printf "reloaded from %s\n\n" dir;

  (* activate it: the tool gains a 16th detector *)
  let tool = Wap_core.Tool.create ~seed:2016 ~weapons:[ weapon ] Wap_core.Version.Wape in
  let o =
    Wap_core.Tool.Scan.run tool
      (Wap_core.Tool.Scan.request [ ("mongo.php", mongo_app) ])
  in
  let result = o.Wap_core.Tool.Scan.result in
  List.iter
    (fun (f : Wap_core.Tool.finding) ->
      Printf.printf "%-5s %s\n"
        (if f.Wap_core.Tool.predicted_fp then "FP" else "VULN")
        (Wap_taint.Trace.summary f.Wap_core.Tool.candidate))
    result.Wap_core.Tool.findings;

  (* the weapon also carries its fix *)
  let fixed, _ =
    Wap_fixer.Corrector.correct
      (List.hd o.Wap_core.Tool.Scan.units).Wap_taint.Analyzer.program
      result.Wap_core.Tool.reported
  in
  print_endline "\n--- corrected source (weapon fix applied at the sinks) ---";
  print_string fixed
