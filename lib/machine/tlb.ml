type entry = { shadow : int; vpn : Addr.vpn; mpn : Addr.mpn; writable : bool }

type t = { slots : entry option array; mask : int; engine : Inject.t option }

let create ?engine ?(slots = 256) () =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Tlb.create: slots must be a positive power of two";
  { slots = Array.make slots None; mask = slots - 1; engine }

let slot_index t ~shadow ~vpn = (vpn lxor (shadow * 0x9E37)) land t.mask

let query t ~shadow ~vpn ~access =
  match t.slots.(slot_index t ~shadow ~vpn) with
  | Some e
    when e.shadow = shadow && e.vpn = vpn && (access = Fault.Read || e.writable) ->
      e.mpn
  | Some _ | None -> -1

let insert t entry =
  match Inject.fire_opt t.engine Inject.Tlb_insert with
  | Some Inject.Drop_insert -> ()
  | Some _ | None ->
      t.slots.(slot_index t ~shadow:entry.shadow ~vpn:entry.vpn) <- Some entry

let flush_all t = Array.fill t.slots 0 (Array.length t.slots) None

let flush_shadow t ~shadow =
  Array.iteri
    (fun i slot ->
      match slot with
      | Some e when e.shadow = shadow -> t.slots.(i) <- None
      | Some _ | None -> ())
    t.slots

let flush_vpn t ~vpn =
  Array.iteri
    (fun i slot ->
      match slot with
      | Some e when e.vpn = vpn -> t.slots.(i) <- None
      | Some _ | None -> ())
    t.slots

(* Trusted shootdown at machine-page reclamation: before a frame can be
   reused, every translation pointing at it dies, whatever the guest did
   or failed to do with INVLPG. This is what keeps a lost guest
   invalidation (Stale_entry below) from ever serving a reused frame
   across protection domains. *)
let flush_mpn t ~mpn =
  Array.iteri
    (fun i slot ->
      match slot with
      | Some e when e.mpn = mpn -> t.slots.(i) <- None
      | Some _ | None -> ())
    t.slots

(* Guest-initiated INVLPG processing. Unlike [flush_vpn] — which the VMM
   uses internally for its own security-critical shootdowns — this path is
   a fault-injection hook point: a [Stale_entry] injection models the
   invalidation being lost, leaving a stale translation whose later use the
   VMM must survive (typically as a contained machine check). *)
let guest_flush_vpn t ~vpn =
  match Inject.fire_opt t.engine Inject.Tlb_flush with
  | Some Inject.Stale_entry -> ()
  | Some _ | None -> flush_vpn t ~vpn
