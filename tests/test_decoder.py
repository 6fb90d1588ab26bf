import itertools
import random

import numpy as np
import pytest

from rs3127 import (CORRECTED, OK, UNCORRECTABLE, chien_search,
                    compute_syndromes, decode, encode_reference, forney,
                    gf_mul, gf_pow, solve_locator)
from rs3127 import decoder

from oracles import (alpha_power, classical_bm, clmul_reduce, decode_reference, expand_generator,
                     pack_syndromes, parity_region_syndromes, poly_roots)


def random_message(rnd):
    return [rnd.randrange(32) for _ in range(27)]


def trim(poly):
    out = list(poly)
    while out and out[-1] == 0:
        out.pop()
    return out


# --- syndromes -------------------------------------------------------------

def test_syndromes_of_codewords_are_zero():
    rnd = random.Random(5001)
    assert compute_syndromes([0] * 31) == [0, 0, 0, 0]
    for _ in range(200):
        cw = encode_reference(random_message(rnd))
        assert compute_syndromes(cw) == [0, 0, 0, 0]


def test_single_error_syndromes_follow_the_direct_formula_exhaustively():
    # error e at position j gives s[i] = e * alpha^((i+1)*(30-j))
    cw = [0] * 31
    for j in range(31):
        for e in range(1, 32):
            word = list(cw)
            word[j] ^= e
            expected = [gf_mul(e, gf_pow(2, (i + 1) * (30 - j))) for i in range(4)]
            assert compute_syndromes(word) == expected


def test_syndromes_are_linear_so_the_formula_extends_to_any_codeword():
    rnd = random.Random(5002)
    cw = encode_reference(random_message(rnd))
    for j in range(0, 31, 5):
        for e in (1, 13, 31):
            word = list(cw)
            word[j] ^= e
            expected = [gf_mul(e, gf_pow(2, (i + 1) * (30 - j))) for i in range(4)]
            assert compute_syndromes(word) == expected


# --- locator ---------------------------------------------------------------

def test_single_error_locator_has_the_position_inverse_root():
    for j in range(31):
        word = [0] * 31
        word[j] ^= 7
        synd = compute_syndromes(word)
        lam = trim(solve_locator(synd).lam)
        assert len(lam) - 1 == 1
        root = gf_pow(2, (j + 1) % 31)  # alpha^-(30-j)
        assert poly_roots(lam) == {root}
        assert poly_roots(lam) == poly_roots(classical_bm(synd))


def test_double_error_locator_exhaustive_over_position_pairs():
    for j1, j2 in itertools.combinations(range(31), 2):
        word = [0] * 31
        word[j1] ^= 1
        word[j2] ^= 1
        synd = compute_syndromes(word)
        lam = trim(solve_locator(synd).lam)
        assert len(lam) - 1 == 2
        expected = {gf_pow(2, (j1 + 1) % 31), gf_pow(2, (j2 + 1) % 31)}
        assert poly_roots(lam) == expected
        assert poly_roots(lam) == poly_roots(classical_bm(synd))


def test_inverse_free_locator_is_a_scalar_multiple_for_low_weight_errors():
    rnd = random.Random(5003)
    for _ in range(500):
        word = [0] * 31
        for j in rnd.sample(range(31), rnd.choice([1, 2])):
            word[j] ^= rnd.randrange(1, 32)
        synd = compute_syndromes(word)
        lam = trim(solve_locator(synd).lam)
        ref = classical_bm(synd)
        scale = lam[0]  # classical locator is normalized to lam[0] == 1
        assert lam == [gf_mul(scale, c) for c in ref]


def test_inverse_free_and_classical_roots_agree_on_random_syndromes():
    rnd = random.Random(5004)
    for _ in range(100000):
        synd = [rnd.randrange(32) for _ in range(4)]
        if not any(synd):
            continue
        lam = solve_locator(synd).lam
        assert poly_roots(trim(lam)) == poly_roots(classical_bm(synd))


# --- chien search ----------------------------------------------------------

def test_chien_finds_exactly_the_known_positions():
    word = [0] * 31
    word[4] ^= 9
    loc = solve_locator(compute_syndromes(word))
    assert chien_search(loc.lam) == [4]

    word[22] ^= 17
    loc = solve_locator(compute_syndromes(word))
    assert chien_search(loc.lam) == [4, 22]


def test_chien_with_rootless_polynomial_is_empty():
    # x^2 + x + 1 has no roots: even powers alpha^(2k) would need
    # alpha^k as a root of x + ... exhaustively verified instead
    assert poly_roots([1, 1, 1]) == set()
    assert chien_search([1, 1, 1]) == []


def _brute_force_chien(locators):
    """Positions j where each locator (rows of ascending coefficients)
    vanishes at alpha^(j+1), every product by shift-and-reduce."""
    product = np.array([[clmul_reduce(a, b) for b in range(32)] for a in range(32)])
    points = np.array([[alpha_power((j + 1) * d) for d in range(locators.shape[1])]
                       for j in range(31)])
    values = np.zeros((len(locators), 31), int)
    for d in range(locators.shape[1]):
        values ^= product[locators[:, d, None], points[None, :, d]]
    return [np.flatnonzero(row == 0).tolist() for row in values]


def test_chien_equals_a_brute_force_root_scan_on_every_degree_2_locator():
    locators = np.array(list(itertools.product(range(32), repeat=3)))
    for lam, want in zip(locators.tolist(), _brute_force_chien(locators)):
        assert chien_search(lam) == (want if any(lam) else [])


def test_chien_equals_a_brute_force_root_scan_on_sampled_degree_3_and_4_locators():
    rng = np.random.default_rng(5007)
    locators = rng.integers(0, 32, (20000, 5))
    locators[:10000, 4] = 0
    locators[:10000, 3] = rng.integers(1, 32, 10000)
    locators[10000:, 4] = rng.integers(1, 32, 10000)
    # random locators rarely have 3 or 4 roots: add products of that many
    # distinct factors x + alpha^(j+1), which vanish at positions j
    positions = [sorted(rng.choice(31, n, replace=False).tolist())
                 for n in (3, 4) for _ in range(200)]
    for lam, want in zip(locators.tolist(), _brute_force_chien(locators)):
        assert chien_search(lam) == want
    for want in positions:
        assert chien_search(expand_generator([alpha_power(j + 1) for j in want])) == want


def test_root_count_must_match_degree_for_correctability():
    word = [0] * 31
    for j in (1, 7, 19):
        word[j] ^= 5
    loc = solve_locator(compute_syndromes(word))
    nu = len(trim(loc.lam)) - 1
    positions = chien_search(loc.lam)
    if len(positions) == nu and nu <= 2:
        # a weight-3 pattern that slips through is a miscorrection,
        # which decode() surfaces as corrected-with-wrong-payload
        assert decode(word).message != [0] * 27
    else:
        assert decode(word).status == UNCORRECTABLE


# --- forney + decode round trips -------------------------------------------

def test_single_error_magnitudes_recovered_exhaustively():
    rnd = random.Random(5005)
    cw = encode_reference(random_message(rnd))
    for j in range(31):
        for e in range(1, 32):
            word = list(cw)
            word[j] ^= e
            synd = compute_syndromes(word)
            loc = solve_locator(synd)
            positions = chien_search(loc.lam)
            assert positions == [j]
            assert forney(loc.lam, loc.omega, j) == e


def test_double_error_round_trip_sampled():
    rnd = random.Random(5006)
    cw = encode_reference(random_message(rnd))
    for _ in range(2000):
        j1, j2 = rnd.sample(range(31), 2)
        e1, e2 = rnd.randrange(1, 32), rnd.randrange(1, 32)
        word = list(cw)
        word[j1] ^= e1
        word[j2] ^= e2
        res = decode(word)
        assert res.status == CORRECTED
        assert res.corrected_symbols == 2
        assert res.message == cw[:27]


def test_clean_word_is_never_altered():
    rnd = random.Random(5007)
    for _ in range(300):
        cw = encode_reference(random_message(rnd))
        res = decode(cw)
        assert res.status == OK
        assert res.corrected_symbols == 0
        assert res.message == cw[:27]


def test_weight_3_never_recovers_and_uncorrectable_passes_payload_through():
    rnd = random.Random(5008)
    seen_uncorrectable = seen_miscorrection = False
    for _ in range(2000):
        cw = encode_reference(random_message(rnd))
        word = list(cw)
        for j in rnd.sample(range(31), 3):
            word[j] ^= rnd.randrange(1, 32)
        res = decode(word)
        # three genuine symbol errors are beyond design distance: the
        # original can never come back
        assert res.message != cw[:27] or res.status == UNCORRECTABLE
        if res.status == UNCORRECTABLE:
            seen_uncorrectable = True
            assert res.message == word[:27]  # received region unmodified
            assert res.corrected_symbols == 0
        elif res.message != cw[:27]:
            seen_miscorrection = True
    assert seen_uncorrectable and seen_miscorrection


def test_syndrome_columns_are_the_packed_syndromes_of_every_single_symbol_word():
    """All 31 x 32 words with one symbol v at position j (v = 0 included)."""
    columns = decoder._syndrome_columns()
    assert len(columns) == 31 and {len(column) for column in columns} == {32}
    for j, v in itertools.product(range(31), range(32)):
        word = [0] * 31
        word[j] = v
        assert columns[j][v] == pack_syndromes(compute_syndromes(word)), (j, v)


def test_decode_hands_a_dirty_word_its_syndromes_and_returns_a_clean_one_at_once(monkeypatch):
    """decode XORs one column entry per symbol: a dirty word (1 to 5 symbol
    errors) makes one lookup_lists call, with exactly compute_syndromes'
    S1..S4 packed, and a codeword makes none. Nothing calls the reference
    decoder's Berlekamp-Massey."""
    seen, lookup = [], decoder.lookup_lists
    monkeypatch.setattr(decoder, "lookup_lists", lambda synd: seen.append(synd) or lookup(synd))

    def refuse(synd):
        raise AssertionError("decode called solve_locator")

    monkeypatch.setattr(decoder, "solve_locator", refuse)
    rnd = random.Random(5010)
    for _ in range(500):
        word = encode_reference(random_message(rnd))
        assert decode(word).status == OK and seen == []
        for j in rnd.sample(range(31), rnd.randrange(1, 6)):
            word[j] ^= rnd.randrange(1, 32)
        synd = compute_syndromes(word)
        decode(word)
        assert seen == ([[pack_syndromes(synd)]] if any(synd) else [])
        seen.clear()


def test_decode_equals_the_reference_decoder_on_every_syndrome_class():
    """The table decode against Berlekamp-Massey, Chien, Forney and the
    re-check (`decode_reference`): status, count and message on one
    syndrome per nonzero class key (33,792 of them) and on all 1,023
    nonzero syndromes of key 0 (S1 = S2 = 0), each as its parity-region
    word XORed into one of 64 random codewords. A word's outcome is fixed
    by its key, so this covers all 2^20 syndromes."""
    synd = parity_region_syndromes()
    word_of = np.empty_like(synd)
    word_of[synd] = np.arange(len(synd))
    _, key = decoder._class_of(np.arange(1, 1 << 20))
    keys, first = np.unique(key, return_index=True)
    assert keys[0] == 0 and len(keys) == 1 + 33_792
    chosen = np.concatenate([first[1:] + 1, np.arange(1, 1 << 10)])
    assert (key[chosen - 1] == 0).sum() == 1023
    rnd = random.Random(5011)
    codewords = [encode_reference(random_message(rnd)) for _ in range(64)]
    for i, k in enumerate(word_of[chosen].tolist()):
        word = codewords[i % 64][:]
        for s in range(4):
            word[27 + s] ^= k >> 5 * s & 31
        assert decode(word) == decode_reference(word), word


def test_corrects_parity_region_errors_too():
    rnd = random.Random(5009)
    cw = encode_reference(random_message(rnd))
    word = list(cw)
    word[28] ^= 11
    word[30] ^= 3
    res = decode(word)
    assert res.status == CORRECTED and res.message == cw[:27]


def test_length_contract():
    with pytest.raises(ValueError):
        decode([0] * 30)
    with pytest.raises(ValueError):
        compute_syndromes([0] * 32)
