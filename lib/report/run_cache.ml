(* Content-addressed run cache with digest-prefix sharding and an
   optional LRU entry cap. See run_cache.mli for the contract; the notes
   here are about the on-disk layout and locking.

   Layout: [dir/ab/<digest>.json] where [ab] is the first two hex
   characters of the digest. Sharding keeps directory listings short
   under service load (a million entries is ~4k files per shard instead
   of one directory the filesystem has to scan linearly). Entries
   written by older revisions directly under [dir/] are migrated into
   their shard on [create].

   Every mutation of the in-memory index runs under [t.mutex]: the cache
   is shared by Sweep worker domains and by polyflow_serve connection
   threads. File reads and writes happen outside the lock — an entry
   evicted mid-read simply fails its read and downgrades to a miss, and
   stores are temp-file + rename so readers can never observe a torn
   entry. *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
}

type t = {
  root : string;
  cap : int; (* 0 = unlimited *)
  mutex : Mutex.t;
  ticks : (string, int) Hashtbl.t; (* digest -> last-use tick *)
  mutable tick : int;
  c_hits : Pf_obs.Counters.counter;
  c_misses : Pf_obs.Counters.counter;
  c_stores : Pf_obs.Counters.counter;
  c_evictions : Pf_obs.Counters.counter;
}

let is_hex_digest name =
  String.length name = 32
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       name

let digest_of_filename name =
  match Filename.chop_suffix_opt ~suffix:".json" name with
  | Some d when is_hex_digest d -> Some d
  | _ -> None

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    (* a concurrent creator winning the race is fine *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let shard_of digest = String.sub digest 0 2

let shard_dir t digest = Filename.concat t.root (shard_of digest)

let path t ~digest = Filename.concat (shard_dir t digest) (digest ^ ".json")

let mtime_of p = try (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> 0.

(* Move any flat [dir/<digest>.json] entries of the pre-sharding layout
   into their shard, so an existing warm cache survives the upgrade. *)
let migrate_legacy root =
  Array.iter
    (fun name ->
      match digest_of_filename name with
      | None -> ()
      | Some digest ->
          let src = Filename.concat root name in
          let dst_dir = Filename.concat root (shard_of digest) in
          mkdir_p dst_dir;
          let dst = Filename.concat dst_dir name in
          (try Sys.rename src dst
           with Sys_error _ -> ( (* already migrated by a racing process *)
             try Sys.remove src with Sys_error _ -> ())))
    (try Sys.readdir root with Sys_error _ -> [||])

(* Seed the LRU index from disk, oldest mtime first, so recency survives
   a daemon restart (hits refresh the file mtime below). *)
let scan root ticks =
  let found = ref [] in
  Array.iter
    (fun shard ->
      if String.length shard = 2 then
        let sdir = Filename.concat root shard in
        if try Sys.is_directory sdir with Sys_error _ -> false then
          Array.iter
            (fun name ->
              match digest_of_filename name with
              | Some d when shard_of d = shard ->
                  found := (d, mtime_of (Filename.concat sdir name)) :: !found
              | _ -> ())
            (try Sys.readdir sdir with Sys_error _ -> [||]))
    (try Sys.readdir root with Sys_error _ -> [||]);
  let entries =
    List.sort (fun (_, a) (_, b) -> compare (a : float) b) !found
  in
  List.iteri (fun i (d, _) -> Hashtbl.replace ticks d i) entries;
  List.length entries

let evict_until_under_cap t =
  (* caller holds t.mutex. O(entries) per eviction; caps are modest and
     evictions amortize to one per store. *)
  if t.cap > 0 then
    while Hashtbl.length t.ticks > t.cap do
      let victim = ref None in
      Hashtbl.iter
        (fun d tick ->
          match !victim with
          | Some (_, best) when best <= tick -> ()
          | _ -> victim := Some (d, tick))
        t.ticks;
      match !victim with
      | None -> ()
      | Some (d, _) ->
          Hashtbl.remove t.ticks d;
          (try Sys.remove (path t ~digest:d) with Sys_error _ -> ());
          Pf_obs.Counters.incr t.c_evictions
    done

let create ?(cap = 0) ?counters ~dir () =
  mkdir_p dir;
  migrate_legacy dir;
  let reg =
    match counters with Some r -> r | None -> Pf_obs.Counters.create ()
  in
  let ticks = Hashtbl.create 256 in
  let tick = scan dir ticks in
  let t =
    { root = dir;
      cap;
      mutex = Mutex.create ();
      ticks;
      tick;
      c_hits = Pf_obs.Counters.make reg "run_cache_hits";
      c_misses = Pf_obs.Counters.make reg "run_cache_misses";
      c_stores = Pf_obs.Counters.make reg "run_cache_stores";
      c_evictions = Pf_obs.Counters.make reg "run_cache_evictions" }
  in
  Mutex.lock t.mutex;
  evict_until_under_cap t;
  Mutex.unlock t.mutex;
  t

let dir t = t.root
let cap t = t.cap

let stats t =
  Mutex.lock t.mutex;
  let s =
    { hits = Pf_obs.Counters.value t.c_hits;
      misses = Pf_obs.Counters.value t.c_misses;
      stores = Pf_obs.Counters.value t.c_stores;
      evictions = Pf_obs.Counters.value t.c_evictions;
      entries = Hashtbl.length t.ticks }
  in
  Mutex.unlock t.mutex;
  s

let entries t = (stats t).entries

let digest ~workload ~window ~fast_forward ~policy ~label ~config =
  (* every field is a full line of its own, so no two distinct keys can
     concatenate to the same string; the config goes in as its complete
     canonical JSON so that any new Config.t field automatically
     invalidates entries written before it existed *)
  let key =
    String.concat "\n"
      [ "polyflow-run-cache";
        Pf_uarch.Engine.timing_version;
        workload;
        string_of_int window;
        string_of_int fast_forward;
        policy;
        label;
        Json.to_string (Codec.config_to_json config) ]
  in
  Digest.to_hex (Digest.string key)

let warn path reason =
  Printf.eprintf "Run_cache: ignoring %s (%s); will resimulate\n%!" path reason

let store_serial = Atomic.make 0

(* mark [digest] most recently used, adopting entries written by other
   processes since our scan, and trim back under the cap *)
let touch t ~digest =
  Mutex.lock t.mutex;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.ticks digest t.tick;
  evict_until_under_cap t;
  Mutex.unlock t.mutex

let find t ~digest =
  let p = path t ~digest in
  if not (Sys.file_exists p) then begin
    Pf_obs.Counters.incr t.c_misses;
    None
  end
  else
    match
      let ic = open_in_bin p in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let j = Json.of_string text in
      (Json.member_opt "digest" j, Json.member_opt "run" j)
    with
    | exception _ ->
        warn p "unreadable or unparseable";
        Pf_obs.Counters.incr t.c_misses;
        None
    | Some (Json.String d), Some run when d = digest ->
        Pf_obs.Counters.incr t.c_hits;
        (* refresh recency on disk too, so LRU order survives a restart
           of the owning process *)
        (try Unix.utimes p 0. 0. with Unix.Unix_error _ -> ());
        touch t ~digest;
        Some run
    | _ ->
        warn p "digest mismatch or missing members";
        Pf_obs.Counters.incr t.c_misses;
        None

let store t ~digest run_json =
  let entry =
    Json.Obj [ ("digest", Json.String digest); ("run", run_json) ]
  in
  let sdir = shard_dir t digest in
  mkdir_p sdir;
  (* atomic publish: rename within one directory can never expose a
     partial file, and the pid + per-process-unique serial in the temp
     name keeps concurrent writers (which only ever race on identical
     content) from colliding *)
  let tmp =
    Filename.concat sdir
      (Printf.sprintf ".tmp.%d.%d.%s.json" (Unix.getpid ())
         (Atomic.fetch_and_add store_serial 1)
         digest)
  in
  let oc = open_out_bin tmp in
  (match
     output_string oc (Json.to_string_pretty entry);
     output_char oc '\n'
   with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp (path t ~digest);
  Pf_obs.Counters.incr t.c_stores;
  touch t ~digest
