type kind =
  | Integrity
  | Relocation
  | Lost_plaintext
  | Bad_resume
  | Metadata_forged
  | Iv_reuse
  | Torn_state
  | Stale_checkpoint

type t = { kind : kind; detail : string; resource : Resource.t option }

exception Security_fault of t

let is_stale = function
  | Security_fault { kind = Stale_checkpoint; _ } -> true
  | _ -> false

let kind_to_string = function
  | Integrity -> "integrity"
  | Relocation -> "relocation"
  | Lost_plaintext -> "lost-plaintext"
  | Bad_resume -> "bad-resume"
  | Metadata_forged -> "metadata-forged"
  | Iv_reuse -> "iv-reuse"
  | Torn_state -> "torn-state"
  | Stale_checkpoint -> "stale-checkpoint"

let fail ?resource kind fmt =
  Format.kasprintf
    (fun detail -> raise (Security_fault { kind; detail; resource }))
    fmt

let pp ppf { kind; detail; _ } =
  Format.fprintf ppf "security fault [%s]: %s" (kind_to_string kind) detail
