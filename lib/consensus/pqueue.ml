(* Binary min-heap keyed by float priority; ties break by insertion order
   so simulations stay deterministic. *)

type 'a t = {
  mutable data : (float * int * 'a) array;
  mutable len : int;
  mutable stamp : int;
}

let create () = { data = Array.make 16 (0.0, 0, Obj.magic 0); len = 0; stamp = 0 }

let is_empty t = t.len = 0
let length t = t.len

(* Typed so the comparisons compile to float and int instructions rather
   than calls to the polymorphic compare. *)
let before ((p1 : float), (s1 : int), _) ((p2 : float), (s2 : int), _) =
  p1 < p2 || (p1 = p2 && s1 < s2)

let push t priority v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) t.data.(0) in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- (priority, t.stamp, v);
  t.stamp <- t.stamp + 1;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while !i > 0 && before t.data.(!i) t.data.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    let tmp = t.data.(!i) in
    t.data.(!i) <- t.data.(parent);
    t.data.(parent) <- tmp;
    i := parent
  done

let pop t =
  if t.len = 0 then None
  else begin
    let (priority, _, v) = t.data.(0) in
    t.len <- t.len - 1;
    t.data.(0) <- t.data.(t.len);
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && before t.data.(l) t.data.(!smallest) then smallest := l;
      if r < t.len && before t.data.(r) t.data.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.data.(!i) in
        t.data.(!i) <- t.data.(!smallest);
        t.data.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some (priority, v)
  end

let peek_priority t = if t.len = 0 then None else (fun (p, _, _) -> Some p) t.data.(0)
