(** Structured verifier diagnostics.

    Every check in {!Verify} and in the package-consistency layer reports
    through this type: a stable machine-readable code (["V1xx"] structural
    bytecode checks, ["V2xx"] repo link resolution, ["P3xx"] profile/package
    consistency), a severity, an optional (function, pc) locus and a human
    message.  Codes are part of the tool contract — tests and CI match on
    them, so they must never be renamed or reused. *)

type severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  fid : int option;  (** function the diagnostic is about, if any *)
  pc : int option;  (** bytecode index within [fid], if any *)
  message : string;
}

val error : ?fid:int -> ?pc:int -> string -> string -> t
(** [error ?fid ?pc code message] *)

val warning : ?fid:int -> ?pc:int -> string -> string -> t

val is_error : t -> bool

(** Total order used for deterministic output: by function (repo-wide
    diagnostics first), then pc, then code, then message. *)
val compare : t -> t -> int

(** Sort with {!compare} — every public entry point returns sorted lists, so
    two runs over the same repo print byte-identical reports. *)
val sort : t list -> t list

(** Error-severity diagnostics only (sorted if the input was). *)
val errors : t list -> t list

(** No error-severity diagnostic present (warnings allowed). *)
val ok : t list -> bool

(** ["error[V102] f3@7: stack underflow ..."] — stable, single-line. *)
val to_string : t -> string
