"""Golden runs: exact ``--format machine`` stdout, stderr and exit codes.

Each case runs ``lgh`` in-process on a small model (and factorization)
file and compares what it prints with the output recorded when the case
was added.  A refactor that changes any digit, key order, error message
or exit code fails here.
"""

import pytest

from lghomology.cli import main

FILES = {
    'weighted.lg': ('field rational\n'
                    'variables x:1 y:2\n'
                    'potential x^4+y^2+x^2*y\n'),
    'commented.lg': ('# weighted.lg with comments and blank lines\n'
                     '\n'
                     'field rational   # the default\n'
                     'variables x:1 y:2\n'
                     '   \n'
                     'potential x^4+y^2+x^2*y  # W\n'),
    'bm_q.lg': ('field rational\n'
                'variables x:2 y:3\n'
                'potential x^3-y^2\n'),
    'bm_fp.lg': ('field prime 7\n'
                 'variables x\n'
                 'potential x^4\n'),
    'ord.lg': ('field rational\n'
               'variables x\n'
               'potential 2*x^2\n'
               'carrier truncated 3\n'
               'window tensor=6\n'),
    'cc.lg': ('field rational\n'
              'variables x y\n'
              'potential x^3+y^4\n'),
    'orb.lg': ('field rational\n'
               'variables x y\n'
               'potential x^3+y^3\n'
               'group order 3 weights 1 2\n'),
    'kos.lg': ('field rational\n'
               'variables x y\n'
               'potential x^3+y^3\n'),
    'x5.lg': ('field rational\n'
              'variables x\n'
              'potential x^5\n'),
    'x5.mf': ('P0 x^2\n'
              'P1 x^3\n'
              'twists0 0\n'
              'twists1 2\n'),
    'x2y2.lg': ('field rational\n'
                'variables x y\n'
                'potential x^2+y^2\n'),
    'x2y2.mf': ('P0 x, y; -y, x\n'
                'P1 x, -y; y, x\n'),
    'x2y.mf': ('P0 x\n'
               'P1 x*y\n'),
    'bad.mf': ('P0 x\n'
               'P1 x^2\n'),
    'ord_fp.lg': ('field prime 101\n'
                  'variables x\n'
                  'potential 3*x^2\n'
                  'carrier truncated 4\n'
                  'window tensor=5\n'),
    'sector6.lg': ('field rational\n'
                   'variables x y\n'
                   'potential x^2*y^2\n'
                   'group order 2 weights 0 1\n'),
    'nonhom.lg': ('field rational\n'
                  'variables x y\n'
                  'potential x^3+y^2\n'),
    'ord2.lg': ('field rational\n'
                'variables x\n'
                'potential 2*x^2\n'
                'carrier truncated 3\n'
                'window tensor=2\n'),
    'bm0.lg': ('field rational\n'
               'variables x\n'
               'potential x^3\n'
               'window maxr=0\n'),
    'nonisolated.lg': ('field rational\n'
                       'variables x y\n'
                       'potential x^2*y\n'),
    'sector.lg': ('field rational\n'
                  'variables x y\n'
                  'potential x^2*y^2+x^4+y^4\n'
                  'group order 2 weights 1 0\n'),
    'ord_xy.lg': ('field prime 7\n'
                  'variables x y\n'
                  'potential 3*x*y\n'
                  'carrier truncated 2 2\n'
                  'window tensor=6\n'),
}

# (lgh arguments, exit code, stdout, stderr)
GOLDEN = [
    (['jacobi', 'weighted.lg'], 0,
     '{"canonical_dims":{"3":1,"4":1,"5":1},"canonical_parity":0,"cano'
     'nical_shift":3,"command":"jacobi","graded_dims":{"0":1,"1":1,"2"'
     ':1},"isolated":true,"milnor":3,"potential":"x^4+y^2+x^2*y","sche'
     'ma_version":1}\n',
     ''),
    (['hh', 'bm_q.lg', '--variant', 'bm'], 0,
     '{"command":"hh","dims_per_degree":{"5":1,"7":1},"even_total":2,"'
     'odd_total":0,"potential":"x^3-y^2","schema_version":1,"total":2,'
     '"variant":"bm"}\n',
     ''),
    (['hh', 'bm_fp.lg', '--variant', 'bm'], 0,
     '{"command":"hh","dims_per_degree":{"1":1,"2":1,"3":1},"even_tota'
     'l":0,"odd_total":3,"potential":"x^4","schema_version":1,"total":'
     '3,"variant":"bm"}\n',
     ''),
    (['hh', 'ord.lg', '--variant', 'ordinary'], 0,
     '{"command":"hh","dims":{"even":0,"odd":0},"potential":"2*x^2","s'
     'chema_version":1,"stabilized_at":{"0":2,"1":3},"variant":"ordina'
     'ry"}\n',
     ''),
    (['hh', 'ord_fp.lg', '--variant', 'ordinary'], 0,
     '{"command":"hh","dims":{"even":0,"odd":0},"potential":"3*x^2","s'
     'chema_version":1,"stabilized_at":{"0":2,"1":3},"variant":"ordina'
     'ry"}\n',
     ''),
    (['hh', 'cc.lg', '--variant', 'compact-cohomology'], 0,
     '{"command":"hh","dims_per_degree":{"0":1,"1":2,"2":2,"3":1},"par'
     'ity":"even","potential":"x^3+y^4","schema_version":1,"total":6,"'
     'variant":"compact-cohomology"}\n',
     ''),
    (['orbifold', 'orb.lg'], 0,
     '{"combined":{"0":1,"1":2,"2":1},"command":"orbifold","even_total'
     '":4,"group_order":3,"odd_total":0,"potential":"x^3+y^3","schema_'
     'version":1,"sectors":{"(0,)":{"classes":4,"fixed_vars":[0,1],"in'
     'variant":2,"parity":0},"(1,)":{"classes":1,"fixed_vars":[],"inva'
     'riant":1,"parity":0},"(2,)":{"classes":1,"fixed_vars":[],"invari'
     'ant":1,"parity":0}},"total":4,"twisted_count":2}\n',
     ''),
    (['koszul', 'kos.lg'], 0,
     '{"command":"koszul","concentrated":true,"homology":{"0":{"0":1,"'
     '1":2,"2":1}},"potential":"x^3+y^3","schema_version":1}\n',
     ''),
    (['mf', 'x5.lg', 'x5.mf', 'verify'], 0,
     '{"action":"verify","command":"mf","rank0":1,"rank1":1,"schema_ve'
     'rsion":1,"verified":true}\n',
     ''),
    (['mf', 'x5.lg', 'x5.mf', 'ext', '--method', 'smith'], 0,
     '{"action":"ext","command":"mf","even":2,"method":"smith","odd":2'
     ',"schema_version":1}\n',
     ''),
    (['mf', 'x2y2.lg', 'x2y2.mf', 'ext', '--method', 'truncate'], 0,
     '{"action":"ext","command":"mf","even":2,"method":"truncate","odd'
     '":2,"schema_version":1}\n',
     ''),
    (['mf', 'x5.lg', 'x5.mf', 'graded-audit'], 0,
     '{"action":"graded-audit","command":"mf","graded_degrees":true,"s'
     'chema_version":1,"twists0":[0],"twists1":[2],"verified":true}\n',
     ''),
    (['mf', 'nonisolated.lg', 'x2y.mf', 'ext', '--method', 'truncate'], 3,
     '',
     'error: critical points are not isolated\n'),
    (['jacobi', 'nonisolated.lg', '--require-isolated'], 3,
     '',
     'error: critical points are not isolated\n'),
    (['hh', 'nonisolated.lg', '--variant', 'compact-cohomology'], 3,
     '',
     'error: critical points are not isolated\n'),
    (['mf', 'x5.lg', 'bad.mf', 'verify'], 5,
     '',
     'error: compositions do not equal W times the identity\n'),
    (['mf', 'x5.lg', 'bad.mf', 'graded-audit'], 5,
     '',
     'error: compositions do not equal W times the identity\n'),
    (['hh', 'kos.lg', '--variant', 'ordinary'], 2,
     '',
     'error: the ordinary variant needs a carrier line\n'),
    (['orbifold', 'sector.lg'], 0,
     '{"combined":{"1":1,"2":4,"3":1},"command":"orbifold","even_total'
     '":3,"group_order":2,"odd_total":3,"potential":"x^2*y^2+x^4+y^4",'
     '"schema_version":1,"sectors":{"(0,)":{"classes":9,"fixed_vars":['
     '0,1],"invariant":3,"parity":0},"(1,)":{"classes":3,"fixed_vars":'
     '[1],"invariant":3,"parity":1}},"total":6,"twisted_count":3}\n',
     ''),
    (['orbifold', 'sector6.lg'], 6,
     '',
     'error: restricted critical locus is not isolated\n'),
    (['hh', 'nonhom.lg', '--variant', 'bm'], 1,
     '',
     'error: potential is not weighted-homogeneous\n'),
    (['hh', 'ord2.lg', '--variant', 'ordinary'], 2,
     '',
     'error: window tensor must be at least 4 (line 5)\n'),
    (['hh', 'bm0.lg', '--variant', 'bm'], 2,
     '',
     "error: unknown window key 'maxr' (line 4)\n"),
    (['hh', 'ord_xy.lg', '--variant', 'ordinary'], 0,
     '{"command":"hh","dims":{"even":0,"odd":0},"potential":"3*x*y","s'
     'chema_version":1,"stabilized_at":{"0":2,"1":3},"variant":"ordina'
     'ry"}\n',
     ''),
]


# comments and blank lines change nothing: same output as weighted.lg
GOLDEN.append((['jacobi', 'commented.lg'],) + GOLDEN[0][1:])


def _case_id(case):
    argv = case[0]
    return "-".join(a.split(".")[0].lstrip("-") for a in argv)


@pytest.mark.parametrize("argv, code, out, err", GOLDEN,
                         ids=[_case_id(c) for c in GOLDEN])
def test_machine_output_matches_golden(tmp_path, monkeypatch, capsys, argv,
                                       code, out, err):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--format", "machine"]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err
