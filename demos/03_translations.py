"""Moving systems between the modal and the classified view.

An LTS with classified labels embeds into an MTS over the same alphabet
(a fresh sink absorbs the permissions covariant labels stand for), and an
MTS encodes as an LTS over decorated labels cv(a)/ct(a).  Both directions
preserve and reflect their preorders; composing them is lossy in a
precise, one-sided way.
"""

from modalsim import (
    CCSim,
    Refinement,
    greatest,
    lts,
    lts_of_mts,
    mts,
    mts_of_encoded_lts,
    mts_of_lts,
    print_system,
    signature,
    strip_decorations,
)


def main() -> None:
    sig = signature(cov=["a"], con=["b"])
    source = lts(
        states=["p", "q"],
        sig=sig,
        transitions=[("p", "a", "q"), ("q", "b", "p")],
        init="p",
    )
    print(print_system(source, "source"))

    embedded = mts_of_lts(source)
    print(print_system(embedded, "embedded"))

    # The encoding of an MTS is exactly invertible.
    encoded = lts_of_mts(embedded)
    print(print_system(encoded, "encoded"))
    assert mts_of_encoded_lts(encoded) == embedded
    print("decode(encode(embedded)) == embedded: True")

    # Round trips are one-sided: going classified -> modal -> classified
    # only grows the system upward in the simulation order, never down.
    back = strip_decorations(lts_of_mts(mts_of_lts(source)), target=sig)
    forward = greatest(CCSim(), source, back)
    reverse = greatest(CCSim(), back, source)
    print(f"source <=cc stripped round trip: {('p', 'p') in forward}")
    print(f"stripped round trip <=cc source: {('p', 'p') in reverse}")

    # The modal round trip bounds from below instead: the embedding's sink
    # grants permissions a silent specification never gave.
    spec = mts(["m"], ["a"], [], [], "m")
    modal_back = strip_decorations(mts_of_lts(lts_of_mts(spec)))
    print(f"modal round trip <= spec: "
          f"{('m', 'm') in greatest(Refinement(), modal_back, spec)}")
    print(f"spec <= modal round trip: "
          f"{('m', 'm') in greatest(Refinement(), spec, modal_back)}")


if __name__ == "__main__":
    main()
