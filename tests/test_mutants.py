"""The mutants of ``tests/mutants.py``: every snippet still occurs once, and every mutant is killed."""

import dataclasses

import mutants


def test_every_mutant_snippet_occurs_exactly_once():
    assert {m.name: mutants.occurrences(m) for m in mutants.MUTANTS} == {m.name: 1 for m in mutants.MUTANTS}


# The name is from when every mutant was a certificate mutant; it is kept so that the test id stays.
def test_every_certificate_mutant_is_killed_and_an_equivalent_one_survives():
    # the equivalent mutant changes nothing the tests can see, so the runner must report it by name
    first = mutants.MUTANTS[0]
    equivalent = dataclasses.replace(
        first,
        name="equivalent rewrite of the certificate vector",
        replacement="r = [rng.getrandbits(64) | 0 for _ in range(n)]",
        tests=(mutants.GRAM_CERTIFICATE,),
    )
    expect = {m.name: [] for m in mutants.MUTANTS} | {equivalent.name: [mutants.GRAM_CERTIFICATE]}
    assert mutants.run(mutants.MUTANTS + (equivalent,)) == expect
