(** The vulnerability classes handled by the tool.

    WAP v2.1 ships the first nine detectors (the paper counts reflected
    and stored XSS as one class: "eight classes"); the DSN'16 extension
    adds seven more plus the WordPress-specific SQLI weapon. *)

type t =
  | Sqli  (** SQL injection *)
  | Xss_reflected  (** reflected cross-site scripting *)
  | Xss_stored  (** stored cross-site scripting *)
  | Rfi  (** remote file inclusion *)
  | Lfi  (** local file inclusion *)
  | Dt_pt  (** directory / path traversal *)
  | Osci  (** OS command injection *)
  | Scd  (** source code disclosure *)
  | Phpci  (** PHP command injection *)
  | Ldapi  (** LDAP injection *)
  | Xpathi  (** XPath injection *)
  | Nosqli  (** NoSQL (MongoDB) injection *)
  | Cs  (** comment spamming injection *)
  | Hi  (** header injection / HTTP response splitting *)
  | Ei  (** email injection *)
  | Sf  (** session fixation *)
  | Wp_sqli  (** SQLI through WordPress [$wpdb] *)
  | Custom of string  (** a user weapon's class, by weapon name *)
[@@deriving show, eq, ord]

(** Every built-in class, in declaration order. *)
val all_builtin : t list

(** Classes detected by the original WAP v2.1 tool. *)
val wap_v21 : t list

(** Classes detected by the extended tool (WAPe) out of the box. *)
val wape : t list

(** The seven classes the paper adds (Section IV-A). *)
val new_in_wape : t list

(** Short name used in reports, e.g. ["SQLI"], ["XSS-R"]. *)
val acronym : t -> string

(** Human-readable description. *)
val description : t -> string

(** Command-line flag that activates the detector, e.g. ["-nosqli"]. *)
val flag : t -> string

(** Inverse of {!acronym}, case-insensitive; [None] for unknown names. *)
val of_acronym : string -> t option

(** Grouping used in the paper's Tables VI/VII, where RFI, LFI and DT/PT
    are reported together as ["Files"], both XSS flavours as ["XSS"],
    and WordPress SQLI under ["SQLI"]. *)
val report_group : t -> string
