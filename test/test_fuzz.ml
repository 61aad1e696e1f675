(* Property-based robustness fuzzing: arbitrary syscall sequences — valid
   or nonsensical, native or cloaked — must never crash the stack. Every
   failure a program can provoke is an errno or a clean process death, and
   whole-run cycle counts are deterministic for any sequence. *)

open Machine
open Guest

type op =
  | Open_file of int         (* path index in a small namespace *)
  | Close_fd of int          (* index into the open-fd list (mod) *)
  | Write_file of int * int  (* fd index, length *)
  | Read_file of int * int
  | Seek of int * int
  | Stat_path of int
  | Unlink_path of int
  | Mkdir_path of int
  | Rename_paths of int * int
  | Pipe_roundtrip of int    (* bytes through a fresh pipe *)
  | Dup_fd of int
  | Fork_child
  | Sbrk_pages of int
  | Mmap_unmap of int
  | Signal_self
  | Yield_now
  | Compute of int
  | Bad_fd_ops               (* operations on invalid fds *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Open_file i) (int_range 0 5));
        (3, map (fun i -> Close_fd i) (int_range 0 7));
        (4, map2 (fun i l -> Write_file (i, l)) (int_range 0 7) (int_range 0 6000));
        (4, map2 (fun i l -> Read_file (i, l)) (int_range 0 7) (int_range 0 6000));
        (2, map2 (fun i p -> Seek (i, p)) (int_range 0 7) (int_range (-100) 20_000));
        (2, map (fun i -> Stat_path i) (int_range 0 5));
        (2, map (fun i -> Unlink_path i) (int_range 0 5));
        (2, map (fun i -> Mkdir_path i) (int_range 0 5));
        (2, map2 (fun a b -> Rename_paths (a, b)) (int_range 0 5) (int_range 0 5));
        (2, map (fun n -> Pipe_roundtrip n) (int_range 0 2000));
        (2, map (fun i -> Dup_fd i) (int_range 0 7));
        (2, return Fork_child);
        (2, map (fun n -> Sbrk_pages n) (int_range (-2) 6));
        (2, map (fun n -> Mmap_unmap n) (int_range 0 8));
        (1, return Signal_self);
        (2, return Yield_now);
        (2, map (fun n -> Compute n) (int_range 0 50_000));
        (2, return Bad_fd_ops);
      ])

let op_print = function
  | Open_file i -> Printf.sprintf "open%d" i
  | Close_fd i -> Printf.sprintf "close%d" i
  | Write_file (i, l) -> Printf.sprintf "write%d/%d" i l
  | Read_file (i, l) -> Printf.sprintf "read%d/%d" i l
  | Seek (i, p) -> Printf.sprintf "seek%d/%d" i p
  | Stat_path i -> Printf.sprintf "stat%d" i
  | Unlink_path i -> Printf.sprintf "unlink%d" i
  | Mkdir_path i -> Printf.sprintf "mkdir%d" i
  | Rename_paths (a, b) -> Printf.sprintf "rename%d->%d" a b
  | Pipe_roundtrip n -> Printf.sprintf "pipe%d" n
  | Dup_fd i -> Printf.sprintf "dup%d" i
  | Fork_child -> "fork"
  | Sbrk_pages n -> Printf.sprintf "sbrk%d" n
  | Mmap_unmap n -> Printf.sprintf "mmap%d" n
  | Signal_self -> "sig"
  | Yield_now -> "yield"
  | Compute n -> Printf.sprintf "cpu%d" n
  | Bad_fd_ops -> "badfd"

let path_of i = Printf.sprintf "/fz%d" i

(* Interpret one sequence inside a guest program. Every errno is ignored:
   the point is that nothing worse than an errno can happen. *)
let interpret ops env =
  let u = Uapi.of_env env in
  if Uapi.cloaked u then ignore (Oshim.Shim.install u);
  Uapi.ignore_signal u ~signum:Abi.sigpipe;
  let fds = ref [] in
  let buf = Uapi.malloc u 8192 in
  let nth_fd i = match !fds with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
  let ignore_errno f = try f () with Errno.Error _ -> () in
  List.iter
    (fun op ->
      ignore_errno (fun () ->
          match op with
          | Open_file i ->
              fds := Uapi.openf u (path_of i) [ Abi.O_CREAT; Abi.O_RDWR ] :: !fds
          | Close_fd i -> (
              match nth_fd i with
              | Some fd ->
                  fds := List.filter (fun f -> f <> fd) !fds;
                  Uapi.close u fd
              | None -> ())
          | Write_file (i, len) -> (
              match nth_fd i with
              | Some fd -> ignore (Uapi.write u ~fd ~vaddr:buf ~len:(min len 8192))
              | None -> ())
          | Read_file (i, len) -> (
              match nth_fd i with
              | Some fd -> ignore (Uapi.read u ~fd ~vaddr:buf ~len:(min len 8192))
              | None -> ())
          | Seek (i, pos) -> (
              match nth_fd i with
              | Some fd -> ignore (Uapi.lseek u ~fd ~pos ~whence:Abi.Seek_set)
              | None -> ())
          | Stat_path i -> ignore (Uapi.stat u (path_of i))
          | Unlink_path i -> Uapi.unlink u (path_of i)
          | Mkdir_path i -> Uapi.mkdir u (path_of i ^ "d")
          | Rename_paths (a, b) -> Uapi.rename u ~src:(path_of a) ~dst:(path_of b)
          | Pipe_roundtrip n ->
              let rfd, wfd = Uapi.pipe u in
              let n = min n 4096 in
              let written = ref 0 in
              while !written < n do
                written := !written + Uapi.write u ~fd:wfd ~vaddr:buf ~len:(n - !written)
              done;
              let got = ref 0 in
              while !got < n do
                let r = Uapi.read u ~fd:rfd ~vaddr:buf ~len:(n - !got) in
                if r = 0 then got := n else got := !got + r
              done;
              Uapi.close u rfd;
              Uapi.close u wfd
          | Dup_fd i -> (
              match nth_fd i with
              | Some fd -> fds := Uapi.dup u fd :: !fds
              | None -> ())
          | Fork_child ->
              let _ = Uapi.fork u ~child:(fun c -> Uapi.exit (Uapi.of_env c) 0) in
              ignore (Uapi.wait u)
          | Sbrk_pages n -> ignore (Uapi.sbrk u ~pages:n)
          | Mmap_unmap n ->
              if n > 0 then begin
                let start_vpn = Uapi.mmap u ~pages:n () in
                Uapi.store_byte u ~vaddr:(Addr.vaddr_of_vpn start_vpn) 1;
                Uapi.munmap u ~start_vpn ~pages:n
              end
          | Signal_self ->
              Uapi.on_signal u ~signum:Abi.sigusr1 (fun _ -> ());
              Uapi.kill u ~pid:(Uapi.getpid u) ~signum:Abi.sigusr1;
              Uapi.yield u
          | Yield_now -> Uapi.yield u
          | Compute n -> Uapi.compute u ~cycles:n
          | Bad_fd_ops ->
              (try ignore (Uapi.read u ~fd:9999 ~vaddr:buf ~len:10)
               with Errno.Error _ -> ());
              (try ignore (Uapi.lseek u ~fd:(-1) ~pos:0 ~whence:Abi.Seek_cur)
               with Errno.Error _ -> ());
              (try Uapi.close u 12345 with Errno.Error _ -> ())))
    ops

let run_sequence ~cloaked ops =
  let vmm = Cloak.Vmm.create () in
  let k = Kernel.create vmm in
  let pid = Kernel.spawn k ~cloaked (interpret ops) in
  Kernel.run k;
  (Kernel.exit_status k ~pid, Cost.cycles (Cloak.Vmm.cost vmm), Kernel.violations k)

let seq_arb =
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map op_print l))
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

let prop_native_never_crashes =
  QCheck.Test.make ~name:"native: any syscall sequence exits 0" ~count:60 seq_arb
    (fun ops ->
      let status, _, violations = run_sequence ~cloaked:false ops in
      status = Some 0 && violations = [])

let prop_cloaked_never_crashes =
  QCheck.Test.make ~name:"cloaked+shim: any syscall sequence exits 0" ~count:60 seq_arb
    (fun ops ->
      let status, _, violations = run_sequence ~cloaked:true ops in
      status = Some 0 && violations = [])

let prop_deterministic =
  QCheck.Test.make ~name:"identical sequences cost identical cycles" ~count:20 seq_arb
    (fun ops ->
      let _, c1, _ = run_sequence ~cloaked:true ops in
      let _, c2, _ = run_sequence ~cloaked:true ops in
      c1 = c2)

let () =
  Alcotest.run "fuzz"
    [
      ( "syscall sequences",
        List.map Qseed.to_alcotest
          [ prop_native_never_crashes; prop_cloaked_never_crashes; prop_deterministic ] );
    ]
