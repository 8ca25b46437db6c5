(* Stolen CPU time.

   The benchmark runs in a virtual machine on a shared, overcommitted
   host: for stretches from a second to minutes the hypervisor runs
   other tenants on the cores behind its vCPUs, and a round then takes
   up to half again as long with the code unchanged. The guest kernel counts
   that time as "steal" in /proc/stat. A round's stolen share is the
   steal over the CPU time its processes were ready to use (busy plus
   stolen, summed over the vCPUs), and its times are multiplied by one
   minus that share: what the round would have taken had its vCPUs
   not been taken away. The share is the kernel's count, not the
   program's, and a ratio, so the amount of work the code under test
   does does not move it. Without /proc/stat nothing is corrected. *)

type t = { busy : int; steal : int }

(* user, nice, system, irq and softirq ticks, and steal ticks, over all
   vCPUs *)
let read () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match input_line ic with
          | l -> (
              match
                Scanf.sscanf l "cpu %d %d %d %d %d %d %d %d"
                  (fun user nice system _idle _iowait irq softirq steal ->
                    { busy = user + nice + system + irq + softirq; steal })
              with
              | t -> Some t
              | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
          | exception End_of_file -> None)

(* the stolen share of the CPU time demanded between [a] and [b] *)
let share a b =
  match (a, b) with
  | Some a, Some b ->
      let steal = b.steal - a.steal and busy = b.busy - a.busy in
      if steal + busy <= 0 then 0. else float_of_int steal /. float_of_int (steal + busy)
  | _ -> 0.
