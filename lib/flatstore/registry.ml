module Make (K : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end) =
struct
  module H = Hashtbl.Make (K)

  type t = {
    mutable keys : K.t array;  (* index -> key; only [0, count) valid *)
    mutable count : int;
    index : int H.t;
  }

  let create ?(capacity = 64) () =
    let capacity = Stdlib.max 1 capacity in
    { keys = [||]; count = 0; index = H.create capacity }

  let count t = t.count

  (* A hit allocates nothing: [H.find] returns the index unboxed. *)
  let intern t k =
    match H.find t.index k with
    | i -> i
    | exception Not_found ->
      let i = t.count in
      let cap = Array.length t.keys in
      if i >= cap then begin
        let keys = Array.make (Stdlib.max 16 (2 * cap)) k in
        Array.blit t.keys 0 keys 0 t.count;
        t.keys <- keys
      end;
      t.keys.(i) <- k;
      t.count <- i + 1;
      H.replace t.index k i;
      i

  let find t k = H.find_opt t.index k
  let mem t k = H.mem t.index k

  let key t i =
    if i < 0 || i >= t.count then invalid_arg "Registry.key: unassigned index";
    t.keys.(i)

  let iteri t f =
    for i = 0 to t.count - 1 do
      f i t.keys.(i)
    done

  let fold t ~init ~f =
    let acc = ref init in
    for i = 0 to t.count - 1 do
      acc := f !acc i t.keys.(i)
    done;
    !acc
end
