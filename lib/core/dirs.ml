(* [mkdir -p]: create the missing ancestors first, then [dir].  Errors
   are left to the caller's first write, which reports them; EEXIST
   from a concurrent creator is success. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ()
  end
