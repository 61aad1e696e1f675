type access = Read | Write

type page_fault_kind = Not_present | Protection

type page_fault = { vpn : Addr.vpn; access : access; kind : page_fault_kind }

exception Guest_page_fault of page_fault

let guest_fault vpn access kind = raise (Guest_page_fault { vpn; access; kind })

exception Machine_check of string
(* Raised when simulated hardware state is inconsistent — e.g. a stale
   translation reaching a machine page that is no longer allocated. The
   guest kernel contains it by killing the faulting process. *)

let machine_check fmt = Format.kasprintf (fun s -> raise (Machine_check s)) fmt

