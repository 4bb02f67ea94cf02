(** The vulnerability classes handled by the tool.

    WAP v2.1 ships the first eight (counting reflected and stored XSS as
    two detectors of one class, as the paper does); the DSN'16 extension
    adds seven more plus the WordPress-specific SQLI weapon. *)

type t =
  (* original WAP v2.1 *)
  | Sqli  (** SQL injection *)
  | Xss_reflected  (** reflected cross-site scripting *)
  | Xss_stored  (** stored cross-site scripting *)
  | Rfi  (** remote file inclusion *)
  | Lfi  (** local file inclusion *)
  | Dt_pt  (** directory / path traversal *)
  | Osci  (** OS command injection *)
  | Scd  (** source code disclosure *)
  | Phpci  (** PHP command injection *)
  (* new in WAPe *)
  | Ldapi  (** LDAP injection *)
  | Xpathi  (** XPath injection *)
  | Nosqli  (** NoSQL (MongoDB) injection *)
  | Cs  (** comment spamming injection *)
  | Hi  (** header injection / HTTP response splitting *)
  | Ei  (** email injection *)
  | Sf  (** session fixation *)
  (* weapon-defined *)
  | Wp_sqli  (** SQLI through WordPress [$wpdb] *)
  | Custom of string  (** a user weapon's class, by weapon name *)
[@@deriving show, eq, ord]

let all_builtin =
  [ Sqli; Xss_reflected; Xss_stored; Rfi; Lfi; Dt_pt; Osci; Scd; Phpci;
    Ldapi; Xpathi; Nosqli; Cs; Hi; Ei; Sf; Wp_sqli ]

(** Classes detected by the original WAP v2.1 tool. *)
let wap_v21 = [ Sqli; Xss_reflected; Xss_stored; Rfi; Lfi; Dt_pt; Osci; Scd; Phpci ]

(** Classes detected by the extended tool (WAPe) out of the box. *)
let wape = wap_v21 @ [ Ldapi; Xpathi; Nosqli; Cs; Hi; Ei; Sf ]

(** The seven classes the paper adds (Section IV-A). *)
let new_in_wape = [ Ldapi; Xpathi; Nosqli; Cs; Hi; Ei; Sf ]

let acronym = function
  | Sqli -> "SQLI"
  | Xss_reflected -> "XSS-R"
  | Xss_stored -> "XSS-S"
  | Rfi -> "RFI"
  | Lfi -> "LFI"
  | Dt_pt -> "DT/PT"
  | Osci -> "OSCI"
  | Scd -> "SCD"
  | Phpci -> "PHPCI"
  | Ldapi -> "LDAPI"
  | Xpathi -> "XPathI"
  | Nosqli -> "NoSQLI"
  | Cs -> "CS"
  | Hi -> "HI"
  | Ei -> "EI"
  | Sf -> "SF"
  | Wp_sqli -> "WP-SQLI"
  | Custom name -> String.uppercase_ascii name

let description = function
  | Sqli -> "SQL injection"
  | Xss_reflected -> "reflected cross-site scripting"
  | Xss_stored -> "stored cross-site scripting"
  | Rfi -> "remote file inclusion"
  | Lfi -> "local file inclusion"
  | Dt_pt -> "directory traversal / path traversal"
  | Osci -> "OS command injection"
  | Scd -> "source code disclosure"
  | Phpci -> "PHP command injection"
  | Ldapi -> "LDAP injection"
  | Xpathi -> "XPath injection"
  | Nosqli -> "NoSQL (MongoDB) injection"
  | Cs -> "comment spamming injection"
  | Hi -> "header injection / HTTP response splitting"
  | Ei -> "email injection"
  | Sf -> "session fixation"
  | Wp_sqli -> "SQL injection through WordPress $wpdb"
  | Custom name -> "user-defined class " ^ name

(** Command-line flag that activates the detector, e.g. [-sqli]. *)
let flag = function
  | Sqli -> "-sqli"
  | Xss_reflected -> "-xss"
  | Xss_stored -> "-xss"
  | Rfi -> "-rfi"
  | Lfi -> "-lfi"
  | Dt_pt -> "-dtpt"
  | Osci -> "-osci"
  | Scd -> "-scd"
  | Phpci -> "-phpci"
  | Ldapi -> "-ldapi"
  | Xpathi -> "-xpathi"
  | Nosqli -> "-nosqli"
  | Cs -> "-cs"
  | Hi -> "-hei"
  | Ei -> "-hei"
  | Sf -> "-sf"
  | Wp_sqli -> "-wpsqli"
  | Custom name -> "-" ^ String.lowercase_ascii name

let of_acronym s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun c -> String.uppercase_ascii (acronym c) = s) all_builtin

(** Grouping used in the paper's Tables VI/VII, where RFI, LFI and DT/PT
    are reported together as "Files". *)
let report_group = function
  | Rfi | Lfi | Dt_pt -> "Files"
  | Xss_reflected | Xss_stored -> "XSS"
  | Wp_sqli -> "SQLI"
  | c -> acronym c
