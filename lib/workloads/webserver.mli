(** A small static-content web server and closed-loop client, connected by
    a pair of pipes (the simulation's loopback socket). The server is the
    process whose cloaking is under test; the client plays the network. *)

type config = {
  documents : int;      (** number of documents served *)
  doc_bytes : int;      (** size of each document *)
  requests : int;       (** closed-loop requests issued by the client *)
  think_cycles : int;   (** server-side compute per request (templating) *)
}

val default : config

val populate : Uapi.t -> config -> unit
(** Create the document tree under [/www]. *)

val server : config -> use_shim:bool -> request_fd:int -> response_fd:int -> Guest.Abi.program
(** Serve until the client sends the quit request. When [use_shim] is set
    and the process is cloaked, installs the Overshadow shim first. *)

val client : config -> request_fd:int -> response_fd:int -> Guest.Abi.program
(** Issue [requests] round-trips, then the quit request; exits 0 only if
    every response body checks out. *)

