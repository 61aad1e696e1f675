(* Host clock, growable sample buffers and order statistics. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Time [f] on the monotonic host clock; returns the result and elapsed ns. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* A growable int buffer: recording a sample allocates nothing until the
   backing array doubles, so instrumentation inside timed sections stays
   cheap. *)
module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 256 0; len = 0 }

  let add b v =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- v;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len
end

(* Exact order statistic: the ⌈p·n⌉-th smallest value (nearest rank). *)
let percentile_int (a : int array) p =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
    s.(min n rank - 1)
  end

(* Median of floats; the mean of the two middle values for even counts. *)
let median (l : float list) =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_int l = median (List.map float_of_int l)
