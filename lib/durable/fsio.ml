(* Minimal file plumbing for the durability layer — binary-safe reads,
   atomic replace-on-rename writes, and directory listing. Everything
   lives in [Stdlib]/[Sys]; no unix dependency. *)

let read_file path =
  In_channel.with_open_bin path (fun ic ->
      Bytes.unsafe_of_string (In_channel.input_all ic))

let write_file path b =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

(* Write-then-rename: readers either see the old complete file or the
   new complete file, never a prefix. (The simulator's crash points are
   between operations, so the tmp write itself is not a torn-write
   surface — torn writes are injected explicitly by the fault plan.) *)
let write_atomic path b =
  let tmp = path ^ ".tmp" in
  write_file tmp b;
  Sys.rename tmp path

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      let parent = Filename.dirname d in
      if parent <> d then go parent;
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let files_matching ~dir ~prefix ~suffix =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix f && String.ends_with ~suffix f)
    |> List.sort String.compare

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)
