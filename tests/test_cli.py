from __future__ import annotations

import io
import json
import random
import sys
from dataclasses import replace

import pytest

from conftest import AB, all_words, random_fccq_wide
from wordeq import cli
from wordeq.cli import main
from wordeq.evaluator import enumerate_results, model_check
from wordeq.frontend import parse_query, parse_regex, parse_sercq, print_query
from wordeq.model import CyclicQueryError, RLit, UNIVERSE, Variable, default_alphabet
from wordeq.oracle import brute_evaluate
from wordeq.planner import plan


@pytest.fixture
def files(tmp_path):
    def write(name: str, content: str) -> str:
        p = tmp_path / name
        p.write_text(content)
        return str(p)

    return write


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_true_instance(self, files, capsys):
        q = files("q.fcq", "ans() :- u = x.x")
        w = files("w.txt", "abab")
        code, out, _ = run(capsys, "check", q, w)
        assert code == 0 and out.strip() == "true"

    def test_false_instance(self, files, capsys):
        q = files("q.fcq", "ans() :- u = x.x")
        w = files("w.txt", "aba")
        code, out, _ = run(capsys, "check", q, w)
        assert code == 1 and out.strip() == "false"

    def test_cyclic_require_acyclic(self, files, capsys):
        q = files("q.fcq", "ans() :- x1 = y1.y2.y3, x2 = y1.y4.y3")
        w = files("w.txt", "ab")
        code, _, err = run(capsys, "check", q, w, "--require-acyclic")
        assert code == 1 and "cyclic" in err

    def test_word_from_stdin(self, files, capsys, monkeypatch):
        q = files("q.fcq", "ans() :- u = x.x")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"abab\n")))
        code, out, _ = run(capsys, "check", q, "-")
        assert code == 0 and out == "true\n"

    def test_missing_query_file(self, files, capsys, tmp_path):
        w = files("w.txt", "abab")
        code, out, err = run(capsys, "check", str(tmp_path / "missing.fcq"), w)
        assert code == 2 and out == "" and err.startswith("error: ") and "missing.fcq" in err

    def test_word_outside_the_alphabet(self, files, capsys):
        q = files("q.fcq", "ans() :- u = x.x")
        w = files("w.txt", "abca")
        code, out, err = run(capsys, "--alphabet", "ab", "check", q, w)
        assert code == 2 and out == ""
        assert err == "error: input byte 'c' at offset 2 is outside the alphabet\n"

    def test_cyclic_fallback_warns(self, files, capsys):
        # The membership example: cyclic core, answered through brute force.
        q = files("q.fcq", "ans() :- u = 'ab'.x.'ba'.x.y.x")
        w = files("w.txt", "abaabaaaaa")
        code, out, err = run(capsys, "check", q, w)
        assert code == 0 and "falling back" in err
        assert out == "true\n"

    def test_malformed_query(self, files, capsys):
        q = files("q.fcq", "ans() :- u = ")
        w = files("w.txt", "ab")
        code, _, err = run(capsys, "check", q, w)
        assert code == 2 and "parse error" in err

    def test_oracle_agrees(self, files, capsys):
        q = files("q.fcq", "ans(x) :- u = x.y, x in /a*/")
        w = files("w.txt", "aab")
        code, _, _ = run(capsys, "check", q, w, "--oracle")
        assert code == 0

    def test_oracle_disagreement(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "model_check", lambda p, ix: not model_check(p, ix))
        q = files("q.fcq", "ans(x) :- u = x.y, x in /a*/")
        w = files("w.txt", "aab")
        code, out, err = run(capsys, "check", q, w, "--oracle")
        assert code == 3 and out == ""
        assert "engine disagrees with the brute-force oracle" in err

    @pytest.mark.parametrize("word", ["", "a", "ab", "abba", "babab"])
    def test_cycle_of_copies(self, files, capsys, word):
        """Copies that form a cycle, z = x = z, plan (one of them is implied)
        and hold on every word, the oracle agreeing."""
        q = files("q.fcq", "ans() :- z = x, x = z, u = z")
        w = files("w.txt", word)
        code, out, err = run(capsys, "check", q, w, "--oracle")
        assert (code, out, err) == (0, "true\n", "")

    def test_explain(self, files, capsys):
        q = files("q.fcq", "ans() :- u = x.y")
        w = files("w.txt", "ab")
        code, _, err = run(capsys, "check", q, w, "--explain")
        assert code == 0 and "join tree edges" in err

    def test_cyclic_verdicts_match_full_enumeration(self, files, capsys):
        """The fallback decides `check` on the query's Boolean projection and
        stops at its first answer; its verdict must be that of the full
        answer set (all body variables in the head), and `enum` must still
        print every answer."""
        rng = random.Random(1)
        words = all_words("ab", 3)
        cyclic = 0
        verdicts = set()
        while cyclic < 30:
            q = random_fccq_wide(rng)
            try:
                plan(q)
                continue
            except CyclicQueryError:
                cyclic += 1
            body = set().union(*(eq.variables() for eq in q.equations), (c.var for c in q.constraints))
            full = replace(q, head=tuple(sorted(body - {UNIVERSE}, key=str)))
            qf = files("q.fcq", print_query(q, AB))
            for w in words:
                wf = files("w.txt", w)
                truth = bool(brute_evaluate(full, w))
                verdicts.add(truth)
                code, out, err = run(capsys, "--alphabet", "ab", "check", qf, wf)
                assert "falling back" in err
                assert (code, out) == ((0, "true\n") if truth else (1, "false\n")), (q, w)
                code, out, _ = run(capsys, "--alphabet", "ab", "enum", "--json", qf, wf)
                got = {tuple(json.loads(line)[h.name]["word"] for h in q.head) for line in out.splitlines()}
                assert got == brute_evaluate(q, w) and code == (0 if truth else 1), (q, w)
        assert verdicts == {True, False}


class TestEnum:
    def test_json_lines(self, files, capsys):
        q = files("q.fcq", "ans(x) :- u = x.x")
        w = files("w.txt", "abab")
        code, out, _ = run(capsys, "enum", q, w, "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows == [{"x": {"word": "ab", "span": [1, 3]}}]

    def test_limit_zero(self, files, capsys):
        q = files("q.fcq", "ans(x) :- u = x.y")
        w = files("w.txt", "ab")
        code, out, _ = run(capsys, "enum", q, w, "--limit", "0")
        assert code == 0 and out == ""
        q2 = files("q2.fcq", "ans(x) :- u = x.y, x in /#/")
        code2, out2, _ = run(capsys, "enum", q2, w, "--limit", "0")
        assert code2 == 1 and out2 == ""

    def test_negative_limit_is_usage_error(self, files, capsys):
        q = files("q.fcq", "ans(x) :- u = x.y")
        w = files("w.txt", "ab")
        code, out, err = run(capsys, "enum", q, w, "--limit", "-1")
        assert code == 2 and out == "" and "--limit" in err

    def test_cyclic_fallback_spans(self, files, capsys):
        q = files("q.fcq", "ans(x) :- u = 'ab'.x.'ba'.x.y.x")
        w = files("w.txt", "abaabaaaaa")
        code, out, err = run(capsys, "enum", q, w, "--json")
        assert code == 0 and "falling back" in err
        assert out == '{"x": {"word": "aa", "span": [3, 5]}}\n'

    def test_oracle_enumerates_once(self, files, capsys, monkeypatch):
        calls = []

        def counted(p, ix):
            calls.append(p)
            return enumerate_results(p, ix)

        monkeypatch.setattr(cli, "enumerate_results", counted)
        q = files("q.fcq", "ans(x) :- u = x.y")
        w = files("w.txt", "ab")
        code, out, err = run(capsys, "enum", q, w, "--oracle", "--limit", "1")
        assert code == 0 and len(out.splitlines()) == 1 and err == ""
        assert len(calls) == 1

    @pytest.mark.parametrize("limit, printed, most_drawn", [(0, 0, 1), (2, 2, 2), (3, 3, 3)])
    def test_limit_stops_drawing(self, files, capsys, monkeypatch, limit, printed, most_drawn):
        """`--limit N` draws at most N answers (one for N = 0, for the exit
        code), and on a query with exactly N answers does not exhaust the walk."""
        drawn, finished = [], []

        def counted(p, ix):
            for result in enumerate_results(p, ix):
                drawn.append(result)
                yield result
            finished.append(True)

        monkeypatch.setattr(cli, "enumerate_results", counted)
        q = files("q.fcq", "ans(x) :- u = x.y")
        w = files("w.txt", "ab")
        code, out, err = run(capsys, "enum", q, w, "--limit", str(limit))
        assert code == 0 and len(out.splitlines()) == printed and err == ""
        assert len(drawn) <= most_drawn and not finished

    def test_cyclic_long_word_warns(self, files, capsys):
        q = files("q.fcq", "ans(x) :- u = 'ab'.x.'ba'.x.y.x")
        w = files("w.txt", "b" * 15)
        code, out, err = run(capsys, "enum", q, w)
        assert code == 1 and out == ""
        assert "brute-force on a word of length 15 may be very slow" in err

    def test_boolean_query(self, files, capsys):
        q = files("q.fcq", "ans() :- u = x.y")
        w = files("w.txt", "ab")
        code, out, _ = run(capsys, "enum", q, w, "--json")
        assert code == 0 and [json.loads(l) for l in out.strip().splitlines()] == [{}]

    def test_boolean_query_plain(self, files, capsys):
        q = files("q.fcq", "ans() :- u = x.y")
        w = files("w.txt", "ab")
        assert run(capsys, "enum", q, w) == (0, "(true)\n", "")

    def test_oracle_disagreement(self, files, capsys, monkeypatch):
        # The engine drops its first answer; the printed rest still goes out.
        monkeypatch.setattr(cli, "enumerate_results", lambda p, ix: list(enumerate_results(p, ix))[1:])
        q = files("q.fcq", "ans(x) :- u = x.y")
        w = files("w.txt", "ab")
        code, out, err = run(capsys, "enum", q, w, "--oracle")
        assert code == 3 and len(out.splitlines()) == 2
        assert "engine disagrees with the brute-force oracle" in err

    def test_oracle_bound_skips_the_cross_check(self, files, capsys):
        q = files("q.fcq", "ans(x) :- u = x.y")
        w = files("w.txt", "ab" * 7 + "a")
        code, out, err = run(capsys, "enum", q, w, "--oracle")
        assert code == 0 and len(out.splitlines()) == 16
        assert "word of length 15 exceeds the oracle bound; skipping the cross-check" in err


class TestPattern:
    def test_cyclic_pattern(self, capsys):
        code, out, _ = run(capsys, "pattern", "acyclic", "x1x2x1x3x1")
        assert code == 1 and out.strip() == "cyclic"

    def test_acyclic_pattern(self, capsys):
        code, out, _ = run(capsys, "pattern", "acyclic", "x1x2x3x1")
        assert code == 0 and out.strip() == "acyclic"

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "pattern", "decompose", "x1 x2 x1 x1 x2")
        assert code == 0 and "u = " in out

    def test_decompose_with_terminals(self, capsys):
        code, out, _ = run(capsys, "pattern", "decompose", "'ab'.x.y")
        assert code == 0 and "in /ab/" in out

    def test_k_local(self, capsys):
        code, out, _ = run(capsys, "pattern", "k-local", "--k", "4",
                           "x1x2x3x4x2x4x1x2x5x5x1x2")
        assert code == 0 and "u = " in out


    def test_empty_pattern(self, capsys):
        code, out, err = run(capsys, "pattern", "acyclic", "")
        assert code == 2 and out == "" and err == "empty pattern\n"

    def test_not_k_local(self, capsys):
        code, out, _ = run(capsys, "pattern", "k-local", "x1x1x1x2x1x3x1x2x3", "--k", "3")
        assert code == 1 and out == "not 3-ary local\n"


class TestConvert:
    def test_sercq_to_fc_round_trip(self, files, capsys, tmp_path):
        s = files("p.sercq", "pi{x} ( (S*.(x{S+}.'a')).S* )")
        out_path = str(tmp_path / "out.fcq")
        code, _, _ = run(capsys, "convert", "sercq2fc", s, out_path)
        assert code == 0
        parsed = parse_query(open(out_path).read().strip(), default_alphabet())
        assert len(parsed.head) == 2

    def test_fc_to_sercq_round_trip(self, files, capsys, tmp_path):
        q = files("q.fcq", "ans(x) :- u = x.'a'.x")
        out_path = str(tmp_path / "out.sercq")
        code, _, _ = run(capsys, "convert", "fc2sercq", q, out_path)
        assert code == 0
        parsed = parse_sercq(open(out_path).read().strip(), default_alphabet())
        assert len(parsed.formulas) == 1

    def test_output_to_stdout(self, files, capsys):
        q = files("q.fcq", "ans(x) :- u = x.'a'.x")
        code, out, _ = run(capsys, "convert", "fc2sercq", q)
        assert code == 0
        assert len(parse_sercq(out.strip(), default_alphabet()).formulas) == 1

    def test_pseudo_acyclic_flag(self, files, capsys, tmp_path):
        s = files("p.sercq", "pi{x} ( 'a'*.x{'b'+}.S* )")
        out_path = str(tmp_path / "out.fcq")
        code, _, _ = run(capsys, "convert", "sercq2fc", s, out_path, "--acyclic")
        assert code == 0
        q = parse_query(open(out_path).read().strip(), default_alphabet())
        from wordeq.planner import plan
        plan(q)  # planner-acyclic by construction

    def test_bad_direction(self, capsys):
        code, _, _ = run(capsys, "convert", "upwards", "nope", "out")
        assert code == 2

    def test_acyclic_flag_rejects_general(self, files, capsys, tmp_path):
        s = files("p.sercq", "pi{x} ( S*.x{'a'}.S*.y{'b'}.S* )")
        code, _, err = run(capsys, "convert", "sercq2fc", s, str(tmp_path / "o"), "--acyclic")
        assert code == 1 and "pseudo-acyclic" in err


class TestPlanCommand:
    def test_plan_output(self, files, capsys):
        q = files("q.fcq", "ans() :- x1 = x2.x3.x2, x2 = x4.x4.x5")
        code, out, _ = run(capsys, "plan", q)
        assert code == 0 and "skeleton edges: 0-1" in out

    def test_plan_cyclic(self, files, capsys):
        q = files("q.fcq", "ans() :- x1 = y1.y2.y3, x2 = y1.y4.y3")
        code, _, err = run(capsys, "plan", q)
        assert code == 1 and "cyclic" in err


class TestLongLiteral:
    """A 1200-letter terminal block: the parser nests its regex 1200 deep to
    the left, past Python's recursion limit, and every command answers.  So
    do regexes of 5000 unquoted letters, of 3000 nested parentheses and of a
    1200-letter X.X*."""

    @pytest.fixture
    def word(self, files):
        rng = random.Random(0)
        w = "".join(rng.choice("ab") for _ in range(4000))
        return w, files("w.txt", w)

    def test_check_and_enum(self, files, capsys, word):
        w, path = word
        q = files("q.fcq", f"ans(x) :- u = x.'{w[-1200:]}'")
        code, out, _ = run(capsys, "check", q, path)
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "enum", "--limit", "1", q, path)
        assert code == 0 and out == f"x={w[:2800]!r} @[1,2801)\n"

    def test_regex_constraint(self, files, capsys, word):
        w, path = word
        q = files("q.fcq", f"ans(x) :- x in /{w[-1200:]}/")
        code, out, _ = run(capsys, "check", q, path)
        assert code == 0 and out == "true\n"

    def test_plan_and_explain(self, files, capsys, word):
        w, path = word
        q = files("q.fcq", f"ans(x) :- u = x.'{w[-1200:]}'")
        code, out, err = run(capsys, "plan", q)
        assert code == 0 and out.startswith("normalized query:\n") and err == ""
        code, out, err = run(capsys, "check", "--explain", q, path)
        assert code == 0 and out == "true\n" and err.startswith("normalized query:\n")

    def test_convert_round_trip(self, files, capsys, word):
        w, _ = word
        q = files("q.fcq", f"ans(x) :- u = x.'{w[-1200:]}'")
        code, sercq, _ = run(capsys, "convert", "fc2sercq", q)
        assert code == 0 and sercq.startswith("pi{x} ( x{S*}.")
        code, out, _ = run(capsys, "convert", "sercq2fc", files("q.sercq", sercq))
        assert code == 0
        assert parse_query(out, default_alphabet()).head == (Variable("x_p"), Variable("x_c"))

    def test_convert_deep_plus(self, files, capsys, word):
        # B.B* prints as B+; the two copies of B are parsed apart, and
        # telling them equal must not recurse 1200 deep.
        w, _ = word
        q = files("q.fcq", f"ans(x) :- x in /({w[:1200]})({w[:1200]})*/")
        code, sercq, _ = run(capsys, "convert", "fc2sercq", q)
        assert code == 0 and sercq.endswith(")+}.S* )\n")
        assert len(parse_sercq(sercq.strip(), default_alphabet()).formulas) == 1

    def test_pseudo_acyclic_convert(self, files, capsys, word):
        w, _ = word
        sercq = files("q.sercq", f"pi{{x}} ( x{{'{w[:1200]}'}} S* )")
        code, out, _ = run(capsys, "convert", "sercq2fc", "--acyclic", sercq)
        assert code == 0
        assert out == (f"ans(x_p,x_c) :- u = x_p.z1, z1 = x_c.x_s, x_p in /''/, "
                       f"x_c in /{w[:1200]}/, x_s in /S*/\n")

    def test_unquoted_letters(self):
        rng = random.Random(0)
        letters = "".join(rng.choice("ab") for _ in range(5000))
        assert repr(parse_regex(letters, AB)) == repr(parse_regex(f"'{letters}'", AB))
        assert parse_regex("(" * 5000 + "a" + ")" * 5000, AB) == RLit("a")

    def test_deep_parentheses(self, files, capsys):
        deep = "(" * 3000 + "a" + ")" * 3000
        code, out, _ = run(capsys, "plan", files("q.fcq", f"ans(x) :- x in /{deep}/"))
        assert code == 0 and out.startswith("normalized query:\n")
        deep = "(" * 3000 + "x{'a'}" + ")" * 3000
        code, out, _ = run(capsys, "convert", "sercq2fc", files("q.sercq", f"pi{{x}} ( {deep}.S* )"))
        assert code == 0 and out.startswith("ans(x_p,x_c) :- u = v1, ")
