type proof = Bls.signature

let evaluate sk input =
  let sigma = Bls.sign sk input in
  (Sha256.digest (Bls.signature_to_bytes sigma), sigma)

let verify pk input proof =
  if Bls.verify pk input proof then
    Some (Sha256.digest (Bls.signature_to_bytes proof))
  else None
