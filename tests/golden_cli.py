"""Golden CLI corpus: stdout, stderr and exit code of each invocation,
recorded from the command line before its family table, default context
and substitution engine were unified, and frozen here so the CLI's bytes
cannot drift.  Each row gives argv, the stdin text (None for empty), and
the three recorded results.  Covers the README examples except
``verify --all``, every seq family in all three formats, every poly
family, every series kind, both triangles, each transform kind, the
identity list, several ``verify --id`` reports, and the usage errors.
"""

GOLDEN = [{'argv': ['seq', 'bell', '--n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["1","1","2","5","15","52","203","877","4140"]\n',
  'stderr': ''},
 {'argv': ['seq', 'hyperharmonic', '--p', '2', '--n', '4', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,0\n1,1\n2,5/2\n3,13/3\n4,77/12\n',
  'stderr': ''},
 {'argv': ['triangle', 'stirling1', '--n', '5'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  k  value\n'
            '0  0  1\n'
            '1  0  0\n'
            '1  1  1\n'
            '2  0  0\n'
            '2  1  -1\n'
            '2  2  1\n'
            '3  0  0\n'
            '3  1  2\n'
            '3  2  -3\n'
            '3  3  1\n'
            '4  0  0\n'
            '4  1  -6\n'
            '4  2  11\n'
            '4  3  -6\n'
            '4  4  1\n'
            '5  0  0\n'
            '5  1  24\n'
            '5  2  -50\n'
            '5  3  35\n'
            '5  4  -10\n'
            '5  5  1\n',
  'stderr': ''},
 {'argv': ['poly', 'bernoulli', '--n', '3', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': '1/2*x - 3/2*x^2 + x^3\n',
  'stderr': ''},
 {'argv': ['series', 'dilog', '--order', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,egf,ordinary\n'
            '0,0,0\n'
            '1,1,1\n'
            '2,1/2,1/4\n'
            '3,2/3,1/9\n'
            '4,3/2,1/16\n'
            '5,24/5,1/25\n'
            '6,20,1/36\n'
            '7,720/7,1/49\n'
            '8,630,1/64\n',
  'stderr': ''},
 {'argv': ['transform', '--kind', 'inv-stirling'],
  'stdin': '["1","1","2","5"]\n',
  'code': 0,
  'stdout': '["1","1","1","1"]\n',
  'stderr': ''},
 {'argv': ['verify', '--id', 'T15', '--max-n', '30'],
  'stdin': None,
  'code': 0,
  'stdout': 'T15  checked=31  failures=0  PASS\nall 1 identities passed\n',
  'stderr': ''},
 {'argv': ['identities'],
  'stdin': None,
  'code': 0,
  'stdout': 'id    kind                 description\n'
            'T1    scalar-equality      alternating factorial-weighted partition sums of '
            'hyperharmonics collapse to a signed power rule\n'
            'T1b   scalar-equality      order-one case: alternating factorial-weighted partition '
            'sums of harmonics equal a signed index\n'
            'C2    scalar-equality      first-kind inversion of the signed power rule recovers '
            'hyperharmonic numbers\n'
            'T3a   polynomial-equality  first-kind sums of Euler polynomials match half-power '
            'binomial-polynomial expansions\n'
            'T3b   polynomial-equality  Euler polynomials as second-kind sums of half-power '
            'binomial-polynomial blocks\n'
            'E9    scalar-equality      Euler values at one half as nested central-binomial sums\n'
            'T5a   polynomial-equality  first-kind sums of Bernoulli polynomials match '
            'reciprocal-weighted binomial-polynomial expansions\n'
            'T5b   polynomial-equality  Bernoulli polynomials as second-kind sums of '
            'reciprocal-weighted binomial-polynomial blocks\n'
            'T5c   scalar-equality      Bernoulli numbers: partition-sum formula against '
            'series-reciprocal coefficients\n'
            'T6a   scalar-equality      first-kind sums of Bernoulli numbers give '
            'factorial-weighted harmonic numbers\n'
            'T6b   scalar-equality      second-kind inversion carries factorial-weighted harmonics '
            'back to Bernoulli numbers\n'
            'T6c   scalar-equality      alternating first-kind Bernoulli sums give factorial over '
            'square values\n'
            'T6d   scalar-equality      second-kind inversion of factorial-over-square values '
            'recovers Bernoulli numbers\n'
            'T7    scalar-equality      triangle moments: operator recurrence against direct sums '
            'and Bell-number closed forms\n'
            'L8    polynomial-equality  commutation rule for repeated x d/dx applied to '
            'exponential polynomials\n'
            'E15   polynomial-equality  first and second x d/dx of exponential polynomials as '
            'three-term shift combinations\n'
            'P9    series-equality      reciprocal-index partition polynomials equal the damped '
            'power-sum series\n'
            'C10   polynomial-equality  reciprocal-index partition polynomials via '
            'Bernoulli-weighted convolution, two-term form\n'
            'E21   polynomial-equality  reciprocal-index partition polynomials via plus-convention '
            'Bernoulli convolution\n'
            'E22   polynomial-equality  squared-reciprocal-index partition polynomials via '
            'iterated Bernoulli convolution\n'
            'P11   polynomial-equality  factorial-weighted partition polynomials factor through '
            'shifted geometric polynomials\n'
            'C12   polynomial-equality  geometric polynomials satisfy a first-order differential '
            'recurrence\n'
            'C13   scalar-equality      factorial-over-index partition sums double the '
            'ordered-partition count; the alternating form telescopes\n'
            'E30   numeric-tolerance    ordered-partition counts as geometric-damped power series, '
            'tail-bounded\n'
            'C14   scalar-equality      doubly shifted factorial partition sums count one less '
            'than the index\n'
            'T15   scalar-equality      three routes to the complementary Bell numbers agree\n'
            'L16   polynomial-equality  alternating binomial sums of exponential polynomials '
            'telescope\n'
            'ORTH  scalar-equality      the two triangles are mutually inverse in both '
            'multiplication orders\n'
            'GF6   series-equality      hyperharmonic generating function: log-over-power product '
            'against signed factorial coefficients\n'
            'DIL   series-equality      dilogarithm of a geometric argument has harmonic-number '
            'coefficients\n'
            'L4    series-equality      partial-sum weights equal geometric-series convolution on '
            'ordinary coefficients\n'
            'E18   scalar-equality      the Bernoulli closed form for power sums equals direct '
            'summation\n'
            'CBH   scalar-equality      half-integer binomial coefficients in central-binomial '
            'form\n',
  'stderr': ''},
 {'argv': ['eval', 'sum(k=1..4, S(4,k)*fact(k-1))'],
  'stdin': None,
  'code': 0,
  'stdout': '"26"\n',
  'stderr': ''},
 {'argv': ['eval', 'sum(k=0..n, S(n,k)*(-1)^k*fact(k)*H(k))', '-D', 'n=3'],
  'stdin': None,
  'code': 0,
  'stdout': '"-3"\n',
  'stderr': ''},
 {'argv': ['seq', 'bell', '--n', '8', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  1\n1  1\n2  2\n3  5\n4  15\n5  52\n6  203\n7  877\n8  4140\n',
  'stderr': ''},
 {'argv': ['seq', 'bell', '--n', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,1\n1,1\n2,2\n3,5\n4,15\n5,52\n6,203\n7,877\n8,4140\n',
  'stderr': ''},
 {'argv': ['seq', 'bernoulli', '--n', '8', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  1\n1  -1/2\n2  1/6\n3  0\n4  -1/30\n5  0\n6  1/42\n7  0\n8  -1/30\n',
  'stderr': ''},
 {'argv': ['seq', 'bernoulli', '--n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["1","-1/2","1/6","0","-1/30","0","1/42","0","-1/30"]\n',
  'stderr': ''},
 {'argv': ['seq', 'bernoulli', '--n', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,1\n1,-1/2\n2,1/6\n3,0\n4,-1/30\n5,0\n6,1/42\n7,0\n8,-1/30\n',
  'stderr': ''},
 {'argv': ['seq', 'bernoulli-plus', '--n', '8', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  1\n1  1/2\n2  1/6\n3  0\n4  -1/30\n5  0\n6  1/42\n7  0\n8  -1/30\n',
  'stderr': ''},
 {'argv': ['seq', 'bernoulli-plus', '--n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["1","1/2","1/6","0","-1/30","0","1/42","0","-1/30"]\n',
  'stderr': ''},
 {'argv': ['seq', 'bernoulli-plus', '--n', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,1\n1,1/2\n2,1/6\n3,0\n4,-1/30\n5,0\n6,1/42\n7,0\n8,-1/30\n',
  'stderr': ''},
 {'argv': ['seq', 'derangement', '--n', '8', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  1\n1  0\n2  1\n3  2\n4  9\n5  44\n6  265\n7  1854\n8  14833\n',
  'stderr': ''},
 {'argv': ['seq', 'derangement', '--n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["1","0","1","2","9","44","265","1854","14833"]\n',
  'stderr': ''},
 {'argv': ['seq', 'derangement', '--n', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,1\n1,0\n2,1\n3,2\n4,9\n5,44\n6,265\n7,1854\n8,14833\n',
  'stderr': ''},
 {'argv': ['seq', 'euler', '--n', '8', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  1\n1  0\n2  -1/4\n3  0\n4  5/16\n5  0\n6  -61/64\n7  0\n8  1385/256\n',
  'stderr': ''},
 {'argv': ['seq', 'euler', '--n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["1","0","-1/4","0","5/16","0","-61/64","0","1385/256"]\n',
  'stderr': ''},
 {'argv': ['seq', 'euler', '--n', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,1\n1,0\n2,-1/4\n3,0\n4,5/16\n5,0\n6,-61/64\n7,0\n8,1385/256\n',
  'stderr': ''},
 {'argv': ['seq', 'factorial', '--n', '8', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  1\n1  1\n2  2\n3  6\n4  24\n5  120\n6  720\n7  5040\n8  40320\n',
  'stderr': ''},
 {'argv': ['seq', 'factorial', '--n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["1","1","2","6","24","120","720","5040","40320"]\n',
  'stderr': ''},
 {'argv': ['seq', 'factorial', '--n', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,1\n1,1\n2,2\n3,6\n4,24\n5,120\n6,720\n7,5040\n8,40320\n',
  'stderr': ''},
 {'argv': ['seq', 'fubini', '--n', '8', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  1\n1  1\n2  3\n3  13\n4  75\n5  541\n6  4683\n7  47293\n8  545835\n',
  'stderr': ''},
 {'argv': ['seq', 'fubini', '--n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["1","1","3","13","75","541","4683","47293","545835"]\n',
  'stderr': ''},
 {'argv': ['seq', 'fubini', '--n', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,1\n1,1\n2,3\n3,13\n4,75\n5,541\n6,4683\n7,47293\n8,545835\n',
  'stderr': ''},
 {'argv': ['seq', 'harmonic', '--n', '8', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n'
            '0  0\n'
            '1  1\n'
            '2  3/2\n'
            '3  11/6\n'
            '4  25/12\n'
            '5  137/60\n'
            '6  49/20\n'
            '7  363/140\n'
            '8  761/280\n',
  'stderr': ''},
 {'argv': ['seq', 'harmonic', '--n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["0","1","3/2","11/6","25/12","137/60","49/20","363/140","761/280"]\n',
  'stderr': ''},
 {'argv': ['seq', 'harmonic', '--n', '8', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,0\n1,1\n2,3/2\n3,11/6\n4,25/12\n5,137/60\n6,49/20\n7,363/140\n8,761/280\n',
  'stderr': ''},
 {'argv': ['seq', 'hyperharmonic', '--n', '8', '--p', '2', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n'
            '0  0\n'
            '1  1\n'
            '2  5/2\n'
            '3  13/3\n'
            '4  77/12\n'
            '5  87/10\n'
            '6  223/20\n'
            '7  481/35\n'
            '8  4609/280\n',
  'stderr': ''},
 {'argv': ['seq', 'hyperharmonic', '--n', '8', '--p', '2', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["0","1","5/2","13/3","77/12","87/10","223/20","481/35","4609/280"]\n',
  'stderr': ''},
 {'argv': ['seq', 'hyperharmonic', '--n', '8', '--p', '2', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,0\n1,1\n2,5/2\n3,13/3\n4,77/12\n5,87/10\n6,223/20\n7,481/35\n8,4609/280\n',
  'stderr': ''},
 {'argv': ['seq', 'moment', '--n', '8', '--p', '2', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  0\n1  1\n2  5\n3  22\n4  99\n5  471\n6  2386\n7  12867\n8  73681\n',
  'stderr': ''},
 {'argv': ['seq', 'moment', '--n', '8', '--p', '2', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["0","1","5","22","99","471","2386","12867","73681"]\n',
  'stderr': ''},
 {'argv': ['seq', 'moment', '--n', '8', '--p', '2', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,0\n1,1\n2,5\n3,22\n4,99\n5,471\n6,2386\n7,12867\n8,73681\n',
  'stderr': ''},
 {'argv': ['seq', 'power-sum', '--n', '8', '--p', '2', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  value\n0  0\n1  1\n2  5\n3  14\n4  30\n5  55\n6  91\n7  140\n8  204\n',
  'stderr': ''},
 {'argv': ['seq', 'power-sum', '--n', '8', '--p', '2', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["0","1","5","14","30","55","91","140","204"]\n',
  'stderr': ''},
 {'argv': ['seq', 'power-sum', '--n', '8', '--p', '2', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,value\n0,0\n1,1\n2,5\n3,14\n4,30\n5,55\n6,91\n7,140\n8,204\n',
  'stderr': ''},
 {'argv': ['poly', 'bernoulli', '--n', '5', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': '-1/6*x + 5/3*x^3 - 5/2*x^4 + x^5\n',
  'stderr': ''},
 {'argv': ['poly', 'bernoulli', '--n', '5', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["0","-1/6","0","5/3","-5/2","1"]\n',
  'stderr': ''},
 {'argv': ['poly', 'bernoulli', '--n', '5', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'k,value\n0,0\n1,-1/6\n2,0\n3,5/3\n4,-5/2\n5,1\n',
  'stderr': ''},
 {'argv': ['poly', 'binomial', '--n', '5', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': '1/5*x - 5/12*x^2 + 7/24*x^3 - 1/12*x^4 + 1/120*x^5\n',
  'stderr': ''},
 {'argv': ['poly', 'binomial', '--n', '5', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["0","1/5","-5/12","7/24","-1/12","1/120"]\n',
  'stderr': ''},
 {'argv': ['poly', 'binomial', '--n', '5', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'k,value\n0,0\n1,1/5\n2,-5/12\n3,7/24\n4,-1/12\n5,1/120\n',
  'stderr': ''},
 {'argv': ['poly', 'euler', '--n', '5', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': '-1/2 + 5/2*x^2 - 5/2*x^4 + x^5\n',
  'stderr': ''},
 {'argv': ['poly', 'euler', '--n', '5', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["-1/2","0","5/2","0","-5/2","1"]\n',
  'stderr': ''},
 {'argv': ['poly', 'euler', '--n', '5', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'k,value\n0,-1/2\n1,0\n2,5/2\n3,0\n4,-5/2\n5,1\n',
  'stderr': ''},
 {'argv': ['poly', 'exponential', '--n', '5', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'x + 15*x^2 + 25*x^3 + 10*x^4 + x^5\n',
  'stderr': ''},
 {'argv': ['poly', 'exponential', '--n', '5', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["0","1","15","25","10","1"]\n',
  'stderr': ''},
 {'argv': ['poly', 'exponential', '--n', '5', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'k,value\n0,0\n1,1\n2,15\n3,25\n4,10\n5,1\n',
  'stderr': ''},
 {'argv': ['poly', 'geometric', '--n', '5', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'x + 30*x^2 + 150*x^3 + 240*x^4 + 120*x^5\n',
  'stderr': ''},
 {'argv': ['poly', 'geometric', '--n', '5', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '["0","1","30","150","240","120"]\n',
  'stderr': ''},
 {'argv': ['poly', 'geometric', '--n', '5', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'k,value\n0,0\n1,1\n2,30\n3,150\n4,240\n5,120\n',
  'stderr': ''},
 {'argv': ['series', 'exp', '--order', '6'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  egf  ordinary\n'
            '0  1    1\n'
            '1  1    1\n'
            '2  1    1/2\n'
            '3  1    1/6\n'
            '4  1    1/24\n'
            '5  1    1/120\n'
            '6  1    1/720\n',
  'stderr': ''},
 {'argv': ['series', 'expm1', '--order', '6'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  egf  ordinary\n'
            '0  0    0\n'
            '1  1    1\n'
            '2  1    1/2\n'
            '3  1    1/6\n'
            '4  1    1/24\n'
            '5  1    1/120\n'
            '6  1    1/720\n',
  'stderr': ''},
 {'argv': ['series', 'log1p', '--order', '6'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  egf   ordinary\n'
            '0  0     0\n'
            '1  1     1\n'
            '2  -1    -1/2\n'
            '3  2     1/3\n'
            '4  -6    -1/4\n'
            '5  24    1/5\n'
            '6  -120  -1/6\n',
  'stderr': ''},
 {'argv': ['series', 'geom', '--order', '6'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  egf  ordinary\n'
            '0  1    1\n'
            '1  1    1\n'
            '2  2    1\n'
            '3  6    1\n'
            '4  24   1\n'
            '5  120  1\n'
            '6  720  1\n',
  'stderr': ''},
 {'argv': ['series', 'pow1p', '--order', '6', '--x', '1/2'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  egf      ordinary\n'
            '0  1        1\n'
            '1  1/2      1/2\n'
            '2  -1/4     -1/8\n'
            '3  3/8      1/16\n'
            '4  -15/16   -5/128\n'
            '5  105/32   7/256\n'
            '6  -945/64  -21/1024\n',
  'stderr': ''},
 {'argv': ['series', 'dilog', '--order', '6'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  egf   ordinary\n'
            '0  0     0\n'
            '1  1     1\n'
            '2  1/2   1/4\n'
            '3  2/3   1/9\n'
            '4  3/2   1/16\n'
            '5  24/5  1/25\n'
            '6  20    1/36\n',
  'stderr': ''},
 {'argv': ['series', 'monomial', '--order', '6', '--c', '3', '--m', '2'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  egf  ordinary\n'
            '0  0    0\n'
            '1  0    0\n'
            '2  3    3/2\n'
            '3  0    0\n'
            '4  0    0\n'
            '5  0    0\n'
            '6  0    0\n',
  'stderr': ''},
 {'argv': ['triangle', 'stirling2', '--n', '6', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  k  value\n'
            '0  0  1\n'
            '1  0  0\n'
            '1  1  1\n'
            '2  0  0\n'
            '2  1  1\n'
            '2  2  1\n'
            '3  0  0\n'
            '3  1  1\n'
            '3  2  3\n'
            '3  3  1\n'
            '4  0  0\n'
            '4  1  1\n'
            '4  2  7\n'
            '4  3  6\n'
            '4  4  1\n'
            '5  0  0\n'
            '5  1  1\n'
            '5  2  15\n'
            '5  3  25\n'
            '5  4  10\n'
            '5  5  1\n'
            '6  0  0\n'
            '6  1  1\n'
            '6  2  31\n'
            '6  3  90\n'
            '6  4  65\n'
            '6  5  15\n'
            '6  6  1\n',
  'stderr': ''},
 {'argv': ['triangle', 'stirling2', '--n', '6', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '[{"n":"0","k":"0","value":"1"},{"n":"1","k":"0","value":"0"},{"n":"1","k":"1","value":"1"},{"n":"2","k":"0","value":"0"},{"n":"2","k":"1","value":"1"},{"n":"2","k":"2","value":"1"},{"n":"3","k":"0","value":"0"},{"n":"3","k":"1","value":"1"},{"n":"3","k":"2","value":"3"},{"n":"3","k":"3","value":"1"},{"n":"4","k":"0","value":"0"},{"n":"4","k":"1","value":"1"},{"n":"4","k":"2","value":"7"},{"n":"4","k":"3","value":"6"},{"n":"4","k":"4","value":"1"},{"n":"5","k":"0","value":"0"},{"n":"5","k":"1","value":"1"},{"n":"5","k":"2","value":"15"},{"n":"5","k":"3","value":"25"},{"n":"5","k":"4","value":"10"},{"n":"5","k":"5","value":"1"},{"n":"6","k":"0","value":"0"},{"n":"6","k":"1","value":"1"},{"n":"6","k":"2","value":"31"},{"n":"6","k":"3","value":"90"},{"n":"6","k":"4","value":"65"},{"n":"6","k":"5","value":"15"},{"n":"6","k":"6","value":"1"}]\n',
  'stderr': ''},
 {'argv': ['triangle', 'stirling2', '--n', '6', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,k,value\n'
            '0,0,1\n'
            '1,0,0\n'
            '1,1,1\n'
            '2,0,0\n'
            '2,1,1\n'
            '2,2,1\n'
            '3,0,0\n'
            '3,1,1\n'
            '3,2,3\n'
            '3,3,1\n'
            '4,0,0\n'
            '4,1,1\n'
            '4,2,7\n'
            '4,3,6\n'
            '4,4,1\n'
            '5,0,0\n'
            '5,1,1\n'
            '5,2,15\n'
            '5,3,25\n'
            '5,4,10\n'
            '5,5,1\n'
            '6,0,0\n'
            '6,1,1\n'
            '6,2,31\n'
            '6,3,90\n'
            '6,4,65\n'
            '6,5,15\n'
            '6,6,1\n',
  'stderr': ''},
 {'argv': ['triangle', 'stirling1', '--n', '6', '--format', 'text'],
  'stdin': None,
  'code': 0,
  'stdout': 'n  k  value\n'
            '0  0  1\n'
            '1  0  0\n'
            '1  1  1\n'
            '2  0  0\n'
            '2  1  -1\n'
            '2  2  1\n'
            '3  0  0\n'
            '3  1  2\n'
            '3  2  -3\n'
            '3  3  1\n'
            '4  0  0\n'
            '4  1  -6\n'
            '4  2  11\n'
            '4  3  -6\n'
            '4  4  1\n'
            '5  0  0\n'
            '5  1  24\n'
            '5  2  -50\n'
            '5  3  35\n'
            '5  4  -10\n'
            '5  5  1\n'
            '6  0  0\n'
            '6  1  -120\n'
            '6  2  274\n'
            '6  3  -225\n'
            '6  4  85\n'
            '6  5  -15\n'
            '6  6  1\n',
  'stderr': ''},
 {'argv': ['triangle', 'stirling1', '--n', '6', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '[{"n":"0","k":"0","value":"1"},{"n":"1","k":"0","value":"0"},{"n":"1","k":"1","value":"1"},{"n":"2","k":"0","value":"0"},{"n":"2","k":"1","value":"-1"},{"n":"2","k":"2","value":"1"},{"n":"3","k":"0","value":"0"},{"n":"3","k":"1","value":"2"},{"n":"3","k":"2","value":"-3"},{"n":"3","k":"3","value":"1"},{"n":"4","k":"0","value":"0"},{"n":"4","k":"1","value":"-6"},{"n":"4","k":"2","value":"11"},{"n":"4","k":"3","value":"-6"},{"n":"4","k":"4","value":"1"},{"n":"5","k":"0","value":"0"},{"n":"5","k":"1","value":"24"},{"n":"5","k":"2","value":"-50"},{"n":"5","k":"3","value":"35"},{"n":"5","k":"4","value":"-10"},{"n":"5","k":"5","value":"1"},{"n":"6","k":"0","value":"0"},{"n":"6","k":"1","value":"-120"},{"n":"6","k":"2","value":"274"},{"n":"6","k":"3","value":"-225"},{"n":"6","k":"4","value":"85"},{"n":"6","k":"5","value":"-15"},{"n":"6","k":"6","value":"1"}]\n',
  'stderr': ''},
 {'argv': ['triangle', 'stirling1', '--n', '6', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'n,k,value\n'
            '0,0,1\n'
            '1,0,0\n'
            '1,1,1\n'
            '2,0,0\n'
            '2,1,-1\n'
            '2,2,1\n'
            '3,0,0\n'
            '3,1,2\n'
            '3,2,-3\n'
            '3,3,1\n'
            '4,0,0\n'
            '4,1,-6\n'
            '4,2,11\n'
            '4,3,-6\n'
            '4,4,1\n'
            '5,0,0\n'
            '5,1,24\n'
            '5,2,-50\n'
            '5,3,35\n'
            '5,4,-10\n'
            '5,5,1\n'
            '6,0,0\n'
            '6,1,-120\n'
            '6,2,274\n'
            '6,3,-225\n'
            '6,4,85\n'
            '6,5,-15\n'
            '6,6,1\n',
  'stderr': ''},
 {'argv': ['transform', '--kind', 'stirling'],
  'stdin': '["1","-1/2","3","0","2/3"]\n',
  'code': 0,
  'stdout': '["1","-1/2","5/2","17/2","127/6"]\n',
  'stderr': ''},
 {'argv': ['transform', '--kind', 'inv-stirling'],
  'stdin': '["1","-1/2","3","0","2/3"]\n',
  'code': 0,
  'stdout': '["1","-1/2","7/2","-10","110/3"]\n',
  'stderr': ''},
 {'argv': ['transform', '--kind', 'binomial'],
  'stdin': '["1","-1/2","3","0","2/3"]\n',
  'code': 0,
  'stdout': '["1","1/2","3","17/2","53/3"]\n',
  'stderr': ''},
 {'argv': ['transform', '--kind', 'alt-binomial'],
  'stdin': '["1","-1/2","3","0","2/3"]\n',
  'code': 0,
  'stdout': '["1","3/2","5","23/2","65/3"]\n',
  'stderr': ''},
 {'argv': ['transform',
           '--kind',
           'weighted',
           '--lambda',
           '2',
           '--mu=-1/3',
           '--weighted-kind',
           'second',
           '--format',
           'csv'],
  'stdin': '["1","-1/2","3","0","2/3"]\n',
  'code': 0,
  'stdout': 'n,value\n0,1\n1,1/6\n2,2/3\n3,8/3\n4,2594/243\n',
  'stderr': ''},
 {'argv': ['transform',
           '--kind',
           'weighted',
           '--lambda',
           '2',
           '--mu=-1/3',
           '--weighted-kind',
           'first',
           '--format',
           'csv'],
  'stdin': '["1","-1/2","3","0","2/3"]\n',
  'code': 0,
  'stdout': 'n,value\n0,1\n1,1/6\n2,0\n3,-2/3\n4,1622/243\n',
  'stderr': ''},
 {'argv': ['identities', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '[{"id":"T1","kind":"scalar-equality","description":"alternating factorial-weighted '
            'partition sums of hyperharmonics collapse to a signed power '
            'rule"},{"id":"T1b","kind":"scalar-equality","description":"order-one case: '
            'alternating factorial-weighted partition sums of harmonics equal a signed '
            'index"},{"id":"C2","kind":"scalar-equality","description":"first-kind inversion of '
            'the signed power rule recovers hyperharmonic '
            'numbers"},{"id":"T3a","kind":"polynomial-equality","description":"first-kind sums of '
            'Euler polynomials match half-power binomial-polynomial '
            'expansions"},{"id":"T3b","kind":"polynomial-equality","description":"Euler '
            'polynomials as second-kind sums of half-power binomial-polynomial '
            'blocks"},{"id":"E9","kind":"scalar-equality","description":"Euler values at one half '
            'as nested central-binomial '
            'sums"},{"id":"T5a","kind":"polynomial-equality","description":"first-kind sums of '
            'Bernoulli polynomials match reciprocal-weighted binomial-polynomial '
            'expansions"},{"id":"T5b","kind":"polynomial-equality","description":"Bernoulli '
            'polynomials as second-kind sums of reciprocal-weighted binomial-polynomial '
            'blocks"},{"id":"T5c","kind":"scalar-equality","description":"Bernoulli numbers: '
            'partition-sum formula against series-reciprocal '
            'coefficients"},{"id":"T6a","kind":"scalar-equality","description":"first-kind sums of '
            'Bernoulli numbers give factorial-weighted harmonic '
            'numbers"},{"id":"T6b","kind":"scalar-equality","description":"second-kind inversion '
            'carries factorial-weighted harmonics back to Bernoulli '
            'numbers"},{"id":"T6c","kind":"scalar-equality","description":"alternating first-kind '
            'Bernoulli sums give factorial over square '
            'values"},{"id":"T6d","kind":"scalar-equality","description":"second-kind inversion of '
            'factorial-over-square values recovers Bernoulli '
            'numbers"},{"id":"T7","kind":"scalar-equality","description":"triangle moments: '
            'operator recurrence against direct sums and Bell-number closed '
            'forms"},{"id":"L8","kind":"polynomial-equality","description":"commutation rule for '
            'repeated x d/dx applied to exponential '
            'polynomials"},{"id":"E15","kind":"polynomial-equality","description":"first and '
            'second x d/dx of exponential polynomials as three-term shift '
            'combinations"},{"id":"P9","kind":"series-equality","description":"reciprocal-index '
            'partition polynomials equal the damped power-sum '
            'series"},{"id":"C10","kind":"polynomial-equality","description":"reciprocal-index '
            'partition polynomials via Bernoulli-weighted convolution, two-term '
            'form"},{"id":"E21","kind":"polynomial-equality","description":"reciprocal-index '
            'partition polynomials via plus-convention Bernoulli '
            'convolution"},{"id":"E22","kind":"polynomial-equality","description":"squared-reciprocal-index '
            'partition polynomials via iterated Bernoulli '
            'convolution"},{"id":"P11","kind":"polynomial-equality","description":"factorial-weighted '
            'partition polynomials factor through shifted geometric '
            'polynomials"},{"id":"C12","kind":"polynomial-equality","description":"geometric '
            'polynomials satisfy a first-order differential '
            'recurrence"},{"id":"C13","kind":"scalar-equality","description":"factorial-over-index '
            'partition sums double the ordered-partition count; the alternating form '
            'telescopes"},{"id":"E30","kind":"numeric-tolerance","description":"ordered-partition '
            'counts as geometric-damped power series, '
            'tail-bounded"},{"id":"C14","kind":"scalar-equality","description":"doubly shifted '
            'factorial partition sums count one less than the '
            'index"},{"id":"T15","kind":"scalar-equality","description":"three routes to the '
            'complementary Bell numbers '
            'agree"},{"id":"L16","kind":"polynomial-equality","description":"alternating binomial '
            'sums of exponential polynomials '
            'telescope"},{"id":"ORTH","kind":"scalar-equality","description":"the two triangles '
            'are mutually inverse in both multiplication '
            'orders"},{"id":"GF6","kind":"series-equality","description":"hyperharmonic generating '
            'function: log-over-power product against signed factorial '
            'coefficients"},{"id":"DIL","kind":"series-equality","description":"dilogarithm of a '
            'geometric argument has harmonic-number '
            'coefficients"},{"id":"L4","kind":"series-equality","description":"partial-sum weights '
            'equal geometric-series convolution on ordinary '
            'coefficients"},{"id":"E18","kind":"scalar-equality","description":"the Bernoulli '
            'closed form for power sums equals direct '
            'summation"},{"id":"CBH","kind":"scalar-equality","description":"half-integer binomial '
            'coefficients in central-binomial form"}]\n',
  'stderr': ''},
 {'argv': ['identities', '--format', 'csv'],
  'stdin': None,
  'code': 0,
  'stdout': 'id,kind,description\n'
            'T1,scalar-equality,alternating factorial-weighted partition sums of hyperharmonics '
            'collapse to a signed power rule\n'
            'T1b,scalar-equality,order-one case: alternating factorial-weighted partition sums of '
            'harmonics equal a signed index\n'
            'C2,scalar-equality,first-kind inversion of the signed power rule recovers '
            'hyperharmonic numbers\n'
            'T3a,polynomial-equality,first-kind sums of Euler polynomials match half-power '
            'binomial-polynomial expansions\n'
            'T3b,polynomial-equality,Euler polynomials as second-kind sums of half-power '
            'binomial-polynomial blocks\n'
            'E9,scalar-equality,Euler values at one half as nested central-binomial sums\n'
            'T5a,polynomial-equality,first-kind sums of Bernoulli polynomials match '
            'reciprocal-weighted binomial-polynomial expansions\n'
            'T5b,polynomial-equality,Bernoulli polynomials as second-kind sums of '
            'reciprocal-weighted binomial-polynomial blocks\n'
            'T5c,scalar-equality,Bernoulli numbers: partition-sum formula against '
            'series-reciprocal coefficients\n'
            'T6a,scalar-equality,first-kind sums of Bernoulli numbers give factorial-weighted '
            'harmonic numbers\n'
            'T6b,scalar-equality,second-kind inversion carries factorial-weighted harmonics back '
            'to Bernoulli numbers\n'
            'T6c,scalar-equality,alternating first-kind Bernoulli sums give factorial over square '
            'values\n'
            'T6d,scalar-equality,second-kind inversion of factorial-over-square values recovers '
            'Bernoulli numbers\n'
            'T7,scalar-equality,triangle moments: operator recurrence against direct sums and '
            'Bell-number closed forms\n'
            'L8,polynomial-equality,commutation rule for repeated x d/dx applied to exponential '
            'polynomials\n'
            'E15,polynomial-equality,first and second x d/dx of exponential polynomials as '
            'three-term shift combinations\n'
            'P9,series-equality,reciprocal-index partition polynomials equal the damped power-sum '
            'series\n'
            'C10,polynomial-equality,reciprocal-index partition polynomials via Bernoulli-weighted '
            'convolution, two-term form\n'
            'E21,polynomial-equality,reciprocal-index partition polynomials via plus-convention '
            'Bernoulli convolution\n'
            'E22,polynomial-equality,squared-reciprocal-index partition polynomials via iterated '
            'Bernoulli convolution\n'
            'P11,polynomial-equality,factorial-weighted partition polynomials factor through '
            'shifted geometric polynomials\n'
            'C12,polynomial-equality,geometric polynomials satisfy a first-order differential '
            'recurrence\n'
            'C13,scalar-equality,factorial-over-index partition sums double the ordered-partition '
            'count; the alternating form telescopes\n'
            'E30,numeric-tolerance,ordered-partition counts as geometric-damped power series, '
            'tail-bounded\n'
            'C14,scalar-equality,doubly shifted factorial partition sums count one less than the '
            'index\n'
            'T15,scalar-equality,three routes to the complementary Bell numbers agree\n'
            'L16,polynomial-equality,alternating binomial sums of exponential polynomials '
            'telescope\n'
            'ORTH,scalar-equality,the two triangles are mutually inverse in both multiplication '
            'orders\n'
            'GF6,series-equality,hyperharmonic generating function: log-over-power product against '
            'signed factorial coefficients\n'
            'DIL,series-equality,dilogarithm of a geometric argument has harmonic-number '
            'coefficients\n'
            'L4,series-equality,partial-sum weights equal geometric-series convolution on ordinary '
            'coefficients\n'
            'E18,scalar-equality,the Bernoulli closed form for power sums equals direct summation\n'
            'CBH,scalar-equality,half-integer binomial coefficients in central-binomial form\n',
  'stderr': ''},
 {'argv': ['verify', '--id', 'T1'],
  'stdin': None,
  'code': 0,
  'stdout': 'T1  checked=360  failures=0  PASS\n'
            '  note: order-0 instances rely on the conventions 0^0 = 1 and h(0, n) = 1/n\n'
            'all 1 identities passed\n',
  'stderr': ''},
 {'argv': ['verify', '--id', 'C10'],
  'stdin': None,
  'code': 0,
  'stdout': 'C10  checked=40  failures=0  PASS\nall 1 identities passed\n',
  'stderr': ''},
 {'argv': ['verify', '--id', 'E21'],
  'stdin': None,
  'code': 0,
  'stdout': 'E21  checked=42  failures=0  PASS\nall 1 identities passed\n',
  'stderr': ''},
 {'argv': ['verify', '--id', 'E22'],
  'stdin': None,
  'code': 0,
  'stdout': 'E22  checked=42  failures=0  PASS\nall 1 identities passed\n',
  'stderr': ''},
 {'argv': ['verify', '--id', 'GF6'],
  'stdin': None,
  'code': 0,
  'stdout': 'GF6  checked=6  failures=0  PASS\nall 1 identities passed\n',
  'stderr': ''},
 {'argv': ['verify', '--id', 'C10', '--max-n', '8', '--format', 'json'],
  'stdin': None,
  'code': 0,
  'stdout': '[{"id":"C10","checked":14,"failures":[]}]\n',
  'stderr': ''},
 {'argv': ['seq', 'tribonacci', '--n', '3'],
  'stdin': None,
  'code': 2,
  'stdout': '',
  'stderr': 'usage: stirlingkit seq [-h] --n N [--p P] [--format {text,json,csv}]\n'
            '                       '
            '{bell,bernoulli,bernoulli-plus,derangement,euler,factorial,fubini,harmonic,hyperharmonic,moment,power-sum}\n'
            "stirlingkit seq: error: argument family: invalid choice: 'tribonacci' (choose from "
            "'bell', 'bernoulli', 'bernoulli-plus', 'derangement', 'euler', 'factorial', 'fubini', "
            "'harmonic', 'hyperharmonic', 'moment', 'power-sum')\n"},
 {'argv': ['transform', '--kind', 'stirling'],
  'stdin': 'not json\n',
  'code': 2,
  'stdout': '',
  'stderr': 'error: Expecting value: line 1 column 1 (char 0)\n'},
 {'argv': ['transform', '--kind', 'stirling'],
  'stdin': '{"a": 1}\n',
  'code': 2,
  'stdout': '',
  'stderr': 'error: input must be a JSON array of rational strings\n'}]
