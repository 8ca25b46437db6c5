(* Socket client for the serving daemon and the 2-client closed loop.

   Requests are encoded with the daemon's own codec
   (Pf_serve.Protocol.request_to_json); replies are kept as raw lines
   and decoded only after the loop, so the client adds as little as
   possible to each measured round trip. *)

module Json = Pf_json.Json
module Protocol = Pf_serve.Protocol
module Sweep = Pf_report.Sweep

(* a stuck simulation becomes an error reply, never a hung run *)
let timeout_ms = 60_000

let run_request ~id (s : Sweep.spec) : Protocol.run_request =
  { id = Json.Int id;
    workload = s.workload;
    policy = Pf_core.Policy.name s.policy;
    label = Some s.label;
    window = s.window;
    config = Option.map Pf_report.Codec.config_to_json s.config;
    timeout_ms = Some timeout_ms;
    no_cache = false }

let request_line ~id s =
  Json.to_string (Protocol.request_to_json (Protocol.Run (run_request ~id s)))

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 90.;
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rpc c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

(* one request of a loop: its line, the raw reply (None if the
   connection failed) and the client-side send and receive times *)
type sample = {
  line : string;
  reply : string option;
  t_send : float;
  t_recv : float;
}

let rtt_ms s = (s.t_recv -. s.t_send) *. 1000.

(* [closed_loop ~socket ~clients lines] sends [lines] from [clients]
   concurrent clients, each on its own connection and domain; client
   [c] sends the lines whose index is [c] modulo [clients], in order,
   and waits for each reply before sending the next. Returns the
   samples in line order and the loop's start and end times. *)
let closed_loop ~socket ~clients lines =
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let out = Array.make n None in
  let client c () =
    let conn = connect socket in
    Fun.protect
      ~finally:(fun () -> close conn)
      (fun () ->
        let i = ref c in
        let broken = ref false in
        while !i < n do
          let line = lines.(!i) in
          let t_send = Unix.gettimeofday () in
          let reply =
            if !broken then None
            else
              match rpc conn line with
              | r -> Some r
              | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
                  broken := true;
                  None
          in
          let t_recv = Unix.gettimeofday () in
          out.(!i) <- Some { line; reply; t_send; t_recv };
          i := !i + clients
        done)
  in
  let t0 = Unix.gettimeofday () in
  let domains = List.init clients (fun c -> Domain.spawn (client c)) in
  List.iter Domain.join domains;
  (Array.map Option.get out, (t0, Unix.gettimeofday ()))

(* a decoded run reply: the record with [wall_s] zeroed, so it compares
   equal to the reference record of the same spec *)
type run_reply = {
  cached : bool;
  coalesced : bool;
  server_ms : float;
  record : Sweep.run;
}

let normalise (r : Sweep.run) = { r with Sweep.wall_s = 0. }

let decode line =
  match Protocol.response_of_line line with
  | Ok (Protocol.Run_reply r) -> (
      match Sweep.run_of_json r.run with
      | record ->
          Ok
            { cached = r.cached;
              coalesced = r.coalesced;
              server_ms = r.wall_ms;
              record }
      | exception _ -> Error "undecodable run record")
  | Ok (Protocol.Error_reply { code; message; _ }) ->
      Error (Protocol.error_code_name code ^ ": " ^ message)
  | Ok _ -> Error "unexpected reply"
  | Error msg -> Error msg

let stats socket =
  let c = connect socket in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      let line =
        rpc c (Json.to_string (Protocol.request_to_json (Protocol.Stats Json.Null)))
      in
      Json.member "stats" (Json.of_string line))
