// Linear-algebra (BLAS-like) PolyBench kernels.
//
// Each builder mirrors the loop structure of the PolyBench/C 4.2.1 source
// and uses the original init_array formulas. Array range annotations are
// placeholders here; annotate_from_run replaces them after a binary64
// profiling run.
#include "polybench/kernels.hpp"

namespace luis::polybench::detail {

using ir::Array;
using ir::IVal;
using ir::KernelBuilder;
using ir::RVal;
using ir::ScalarCell;

namespace {
constexpr double kPlaceholder = 100.0; // replaced by profiling
}

BuiltKernel build_gemm(ir::Module& m, DatasetSize size) {
  const std::int64_t ni = scaled(16, size), nj = scaled(18, size), nk = scaled(20, size);
  BuiltKernel k;
  k.name = "gemm";
  KernelBuilder kb(m, k.name);
  Array* C = kb.array("C", {ni, nj}, -kPlaceholder, kPlaceholder);
  Array* A = kb.array("A", {ni, nk}, -kPlaceholder, kPlaceholder);
  Array* B = kb.array("B", {nk, nj}, -kPlaceholder, kPlaceholder);
  RVal alpha = kb.real(1.5), beta = kb.real(1.2);
  kb.for_loop("i", 0, ni, [&](IVal i) {
    kb.for_loop("j", 0, nj, [&](IVal j) {
      kb.store(kb.load(C, {i, j}) * beta, C, {i, j});
    });
    kb.for_loop("kk", 0, nk, [&](IVal kk) {
      kb.for_loop("j", 0, nj, [&](IVal j) {
        kb.store(kb.load(C, {i, j}) + alpha * kb.load(A, {i, kk}) * kb.load(B, {kk, j}),
                 C, {i, j});
      });
    });
  });
  k.function = kb.finish();
  init2(k.inputs, "C", ni, nj, [&](auto i, auto j) {
    return static_cast<double>((i * j + 1) % ni) / ni;
  });
  init2(k.inputs, "A", ni, nk, [&](auto i, auto j) {
    return static_cast<double>(i * (j + 1) % nk) / nk;
  });
  init2(k.inputs, "B", nk, nj, [&](auto i, auto j) {
    return static_cast<double>(i * (j + 2) % nj) / nj;
  });
  k.outputs = {"C"};
  return k;
}

BuiltKernel build_2mm(ir::Module& m, DatasetSize size) {
  const std::int64_t ni = scaled(14, size), nj = scaled(16, size), nk = scaled(18, size), nl = scaled(20, size);
  BuiltKernel k;
  k.name = "2mm";
  KernelBuilder kb(m, k.name);
  Array* tmp = kb.array("tmp", {ni, nj}, -kPlaceholder, kPlaceholder);
  Array* A = kb.array("A", {ni, nk}, -kPlaceholder, kPlaceholder);
  Array* B = kb.array("B", {nk, nj}, -kPlaceholder, kPlaceholder);
  Array* C = kb.array("C", {nj, nl}, -kPlaceholder, kPlaceholder);
  Array* D = kb.array("D", {ni, nl}, -kPlaceholder, kPlaceholder);
  RVal alpha = kb.real(1.5), beta = kb.real(1.2);
  kb.for_loop("i", 0, ni, [&](IVal i) {
    kb.for_loop("j", 0, nj, [&](IVal j) {
      kb.store(kb.real(0.0), tmp, {i, j});
      kb.for_loop("kk", 0, nk, [&](IVal kk) {
        kb.store(kb.load(tmp, {i, j}) + alpha * kb.load(A, {i, kk}) * kb.load(B, {kk, j}),
                 tmp, {i, j});
      });
    });
  });
  kb.for_loop("i", 0, ni, [&](IVal i) {
    kb.for_loop("j", 0, nl, [&](IVal j) {
      kb.store(kb.load(D, {i, j}) * beta, D, {i, j});
      kb.for_loop("kk", 0, nj, [&](IVal kk) {
        kb.store(kb.load(D, {i, j}) + kb.load(tmp, {i, kk}) * kb.load(C, {kk, j}),
                 D, {i, j});
      });
    });
  });
  k.function = kb.finish();
  init2(k.inputs, "A", ni, nk, [&](auto i, auto j) {
    return static_cast<double>((i * j + 1) % ni) / ni;
  });
  init2(k.inputs, "B", nk, nj, [&](auto i, auto j) {
    return static_cast<double>(i * (j + 1) % nj) / nj;
  });
  init2(k.inputs, "C", nj, nl, [&](auto i, auto j) {
    return static_cast<double>((i * (j + 3) + 1) % nl) / nl;
  });
  init2(k.inputs, "D", ni, nl, [&](auto i, auto j) {
    return static_cast<double>(i * (j + 2) % nk) / nk;
  });
  k.inputs["tmp"].assign(static_cast<std::size_t>(ni * nj), 0.0);
  k.outputs = {"D"};
  return k;
}

BuiltKernel build_3mm(ir::Module& m, DatasetSize size) {
  const std::int64_t ni = scaled(12, size), nj = scaled(14, size), nk = scaled(16, size), nl = scaled(18, size), nm = scaled(20, size);
  BuiltKernel k;
  k.name = "3mm";
  KernelBuilder kb(m, k.name);
  Array* A = kb.array("A", {ni, nk}, -kPlaceholder, kPlaceholder);
  Array* B = kb.array("B", {nk, nj}, -kPlaceholder, kPlaceholder);
  Array* C = kb.array("C", {nj, nm}, -kPlaceholder, kPlaceholder);
  Array* D = kb.array("D", {nm, nl}, -kPlaceholder, kPlaceholder);
  Array* E = kb.array("E", {ni, nj}, -kPlaceholder, kPlaceholder);
  Array* F = kb.array("F", {nj, nl}, -kPlaceholder, kPlaceholder);
  Array* G = kb.array("G", {ni, nl}, -kPlaceholder, kPlaceholder);
  auto matmul = [&](Array* dst, Array* lhs, Array* rhs, std::int64_t rows,
                    std::int64_t cols, std::int64_t inner) {
    kb.for_loop("i", 0, rows, [&](IVal i) {
      kb.for_loop("j", 0, cols, [&](IVal j) {
        kb.store(kb.real(0.0), dst, {i, j});
        kb.for_loop("kk", 0, inner, [&](IVal kk) {
          kb.store(kb.load(dst, {i, j}) + kb.load(lhs, {i, kk}) * kb.load(rhs, {kk, j}),
                   dst, {i, j});
        });
      });
    });
  };
  matmul(E, A, B, ni, nj, nk);
  matmul(F, C, D, nj, nl, nm);
  matmul(G, E, F, ni, nl, nj);
  k.function = kb.finish();
  init2(k.inputs, "A", ni, nk, [&](auto i, auto j) {
    return static_cast<double>((i * j + 1) % ni) / (5 * ni);
  });
  init2(k.inputs, "B", nk, nj, [&](auto i, auto j) {
    return static_cast<double>((i * (j + 1) + 2) % nj) / (5 * nj);
  });
  init2(k.inputs, "C", nj, nm, [&](auto i, auto j) {
    return static_cast<double>(i * (j + 3) % nl) / (5 * nl);
  });
  init2(k.inputs, "D", nm, nl, [&](auto i, auto j) {
    return static_cast<double>((i * (j + 2) + 2) % nk) / (5 * nk);
  });
  k.outputs = {"G"};
  return k;
}

BuiltKernel build_atax(ir::Module& m, DatasetSize size) {
  const std::int64_t M = scaled(19, size), N = scaled(21, size);
  BuiltKernel k;
  k.name = "atax";
  KernelBuilder kb(m, k.name);
  Array* A = kb.array("A", {M, N}, -kPlaceholder, kPlaceholder);
  Array* x = kb.array("x", {N}, -kPlaceholder, kPlaceholder);
  Array* y = kb.array("y", {N}, -kPlaceholder, kPlaceholder);
  Array* tmp = kb.array("tmp", {M}, -kPlaceholder, kPlaceholder);
  kb.for_loop("i", 0, N, [&](IVal i) { kb.store(kb.real(0.0), y, {i}); });
  kb.for_loop("i", 0, M, [&](IVal i) {
    kb.store(kb.real(0.0), tmp, {i});
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.store(kb.load(tmp, {i}) + kb.load(A, {i, j}) * kb.load(x, {j}), tmp, {i});
    });
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.store(kb.load(y, {j}) + kb.load(A, {i, j}) * kb.load(tmp, {i}), y, {j});
    });
  });
  k.function = kb.finish();
  const double fn = static_cast<double>(N);
  init1(k.inputs, "x", N, [&](auto i) { return 1.0 + i / fn; });
  init2(k.inputs, "A", M, N, [&](auto i, auto j) {
    return static_cast<double>((i + j) % N) / (5.0 * M);
  });
  k.outputs = {"y"};
  return k;
}

BuiltKernel build_bicg(ir::Module& m, DatasetSize size) {
  const std::int64_t N = scaled(21, size), M = scaled(19, size);
  BuiltKernel k;
  k.name = "bicg";
  KernelBuilder kb(m, k.name);
  Array* A = kb.array("A", {N, M}, -kPlaceholder, kPlaceholder);
  Array* s = kb.array("s", {M}, -kPlaceholder, kPlaceholder);
  Array* q = kb.array("q", {N}, -kPlaceholder, kPlaceholder);
  Array* p = kb.array("p", {M}, -kPlaceholder, kPlaceholder);
  Array* r = kb.array("r", {N}, -kPlaceholder, kPlaceholder);
  kb.for_loop("i", 0, M, [&](IVal i) { kb.store(kb.real(0.0), s, {i}); });
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.store(kb.real(0.0), q, {i});
    kb.for_loop("j", 0, M, [&](IVal j) {
      kb.store(kb.load(s, {j}) + kb.load(r, {i}) * kb.load(A, {i, j}), s, {j});
      kb.store(kb.load(q, {i}) + kb.load(A, {i, j}) * kb.load(p, {j}), q, {i});
    });
  });
  k.function = kb.finish();
  init1(k.inputs, "p", M, [&](auto i) { return static_cast<double>(i % M) / M; });
  init1(k.inputs, "r", N, [&](auto i) { return static_cast<double>(i % N) / N; });
  init2(k.inputs, "A", N, M, [&](auto i, auto j) {
    return static_cast<double>(i * (j + 1) % N) / N;
  });
  k.outputs = {"s", "q"};
  return k;
}

BuiltKernel build_mvt(ir::Module& m, DatasetSize size) {
  const std::int64_t N = scaled(22, size);
  BuiltKernel k;
  k.name = "mvt";
  KernelBuilder kb(m, k.name);
  Array* x1 = kb.array("x1", {N}, -kPlaceholder, kPlaceholder);
  Array* x2 = kb.array("x2", {N}, -kPlaceholder, kPlaceholder);
  Array* y1 = kb.array("y1", {N}, -kPlaceholder, kPlaceholder);
  Array* y2 = kb.array("y2", {N}, -kPlaceholder, kPlaceholder);
  Array* A = kb.array("A", {N, N}, -kPlaceholder, kPlaceholder);
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.store(kb.load(x1, {i}) + kb.load(A, {i, j}) * kb.load(y1, {j}), x1, {i});
    });
  });
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.store(kb.load(x2, {i}) + kb.load(A, {j, i}) * kb.load(y2, {j}), x2, {i});
    });
  });
  k.function = kb.finish();
  init1(k.inputs, "x1", N, [&](auto i) { return static_cast<double>(i % N) / N; });
  init1(k.inputs, "x2", N, [&](auto i) { return static_cast<double>((i + 1) % N) / N; });
  init1(k.inputs, "y1", N, [&](auto i) { return static_cast<double>((i + 3) % N) / N; });
  init1(k.inputs, "y2", N, [&](auto i) { return static_cast<double>((i + 4) % N) / N; });
  init2(k.inputs, "A", N, N, [&](auto i, auto j) {
    return static_cast<double>(i * j % N) / N;
  });
  k.outputs = {"x1", "x2"};
  return k;
}

BuiltKernel build_gesummv(ir::Module& m, DatasetSize size) {
  const std::int64_t N = scaled(20, size);
  BuiltKernel k;
  k.name = "gesummv";
  KernelBuilder kb(m, k.name);
  Array* A = kb.array("A", {N, N}, -kPlaceholder, kPlaceholder);
  Array* B = kb.array("B", {N, N}, -kPlaceholder, kPlaceholder);
  Array* tmp = kb.array("tmp", {N}, -kPlaceholder, kPlaceholder);
  Array* x = kb.array("x", {N}, -kPlaceholder, kPlaceholder);
  Array* y = kb.array("y", {N}, -kPlaceholder, kPlaceholder);
  RVal alpha = kb.real(1.5), beta = kb.real(1.2);
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.store(kb.real(0.0), tmp, {i});
    kb.store(kb.real(0.0), y, {i});
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.store(kb.load(A, {i, j}) * kb.load(x, {j}) + kb.load(tmp, {i}), tmp, {i});
      kb.store(kb.load(B, {i, j}) * kb.load(x, {j}) + kb.load(y, {i}), y, {i});
    });
    kb.store(alpha * kb.load(tmp, {i}) + beta * kb.load(y, {i}), y, {i});
  });
  k.function = kb.finish();
  init1(k.inputs, "x", N, [&](auto i) { return static_cast<double>(i % N) / N; });
  init2(k.inputs, "A", N, N, [&](auto i, auto j) {
    return static_cast<double>((i * j + 1) % N) / N;
  });
  init2(k.inputs, "B", N, N, [&](auto i, auto j) {
    return static_cast<double>((i * j + 2) % N) / N;
  });
  k.outputs = {"y"};
  return k;
}

BuiltKernel build_gemver(ir::Module& m, DatasetSize size) {
  const std::int64_t N = scaled(20, size);
  BuiltKernel k;
  k.name = "gemver";
  KernelBuilder kb(m, k.name);
  Array* A = kb.array("A", {N, N}, -kPlaceholder, kPlaceholder);
  Array* u1 = kb.array("u1", {N}, -kPlaceholder, kPlaceholder);
  Array* v1 = kb.array("v1", {N}, -kPlaceholder, kPlaceholder);
  Array* u2 = kb.array("u2", {N}, -kPlaceholder, kPlaceholder);
  Array* v2 = kb.array("v2", {N}, -kPlaceholder, kPlaceholder);
  Array* w = kb.array("w", {N}, -kPlaceholder, kPlaceholder);
  Array* x = kb.array("x", {N}, -kPlaceholder, kPlaceholder);
  Array* y = kb.array("y", {N}, -kPlaceholder, kPlaceholder);
  Array* z = kb.array("z", {N}, -kPlaceholder, kPlaceholder);
  RVal alpha = kb.real(1.5), beta = kb.real(1.2);
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.store(kb.load(A, {i, j}) + kb.load(u1, {i}) * kb.load(v1, {j}) +
                   kb.load(u2, {i}) * kb.load(v2, {j}),
               A, {i, j});
    });
  });
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.store(kb.load(x, {i}) + beta * kb.load(A, {j, i}) * kb.load(y, {j}), x, {i});
    });
  });
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.store(kb.load(x, {i}) + kb.load(z, {i}), x, {i});
  });
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.store(kb.load(w, {i}) + alpha * kb.load(A, {i, j}) * kb.load(x, {j}), w, {i});
    });
  });
  k.function = kb.finish();
  const double fn = static_cast<double>(N);
  init2(k.inputs, "A", N, N, [&](auto i, auto j) {
    return static_cast<double>(i * j % N) / N;
  });
  init1(k.inputs, "u1", N, [&](auto i) { return static_cast<double>(i); });
  init1(k.inputs, "u2", N, [&](auto i) { return (i + 1) / fn / 2.0; });
  init1(k.inputs, "v1", N, [&](auto i) { return (i + 1) / fn / 4.0; });
  init1(k.inputs, "v2", N, [&](auto i) { return (i + 1) / fn / 6.0; });
  init1(k.inputs, "y", N, [&](auto i) { return (i + 1) / fn / 8.0; });
  init1(k.inputs, "z", N, [&](auto i) { return (i + 1) / fn / 9.0; });
  init1(k.inputs, "x", N, [](auto) { return 0.0; });
  init1(k.inputs, "w", N, [](auto) { return 0.0; });
  k.outputs = {"w"};
  return k;
}

BuiltKernel build_doitgen(ir::Module& m, DatasetSize size) {
  const std::int64_t NR = scaled(10, size), NQ = scaled(8, size), NP = scaled(12, size);
  BuiltKernel k;
  k.name = "doitgen";
  KernelBuilder kb(m, k.name);
  Array* A = kb.array("A", {NR, NQ, NP}, -kPlaceholder, kPlaceholder);
  Array* C4 = kb.array("C4", {NP, NP}, -kPlaceholder, kPlaceholder);
  Array* sum = kb.array("sum", {NP}, -kPlaceholder, kPlaceholder);
  kb.for_loop("r", 0, NR, [&](IVal r) {
    kb.for_loop("q", 0, NQ, [&](IVal q) {
      kb.for_loop("p", 0, NP, [&](IVal p) {
        kb.store(kb.real(0.0), sum, {p});
        kb.for_loop("s", 0, NP, [&](IVal s) {
          kb.store(kb.load(sum, {p}) + kb.load(A, {r, q, s}) * kb.load(C4, {s, p}),
                   sum, {p});
        });
      });
      kb.for_loop("p", 0, NP, [&](IVal p) {
        kb.store(kb.load(sum, {p}), A, {r, q, p});
      });
    });
  });
  k.function = kb.finish();
  init3(k.inputs, "A", NR, NQ, NP, [&](auto i, auto j, auto kk) {
    return static_cast<double>((i * j + kk) % NP) / NP;
  });
  init2(k.inputs, "C4", NP, NP, [&](auto i, auto j) {
    return static_cast<double>(i * j % NP) / NP;
  });
  k.inputs["sum"].assign(static_cast<std::size_t>(NP), 0.0);
  k.outputs = {"A"};
  return k;
}

BuiltKernel build_symm(ir::Module& m, DatasetSize size) {
  const std::int64_t M = scaled(14, size), N = scaled(16, size);
  BuiltKernel k;
  k.name = "symm";
  KernelBuilder kb(m, k.name);
  Array* C = kb.array("C", {M, N}, -kPlaceholder, kPlaceholder);
  Array* A = kb.array("A", {M, M}, -kPlaceholder, kPlaceholder);
  Array* B = kb.array("B", {M, N}, -kPlaceholder, kPlaceholder);
  ScalarCell temp2 = kb.scalar("temp2", -kPlaceholder, kPlaceholder);
  RVal alpha = kb.real(1.5), beta = kb.real(1.2);
  kb.for_loop("i", 0, M, [&](IVal i) {
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.set(temp2, kb.real(0.0));
      kb.for_loop("kk", kb.idx(0), i, [&](IVal kk) {
        kb.store(kb.load(C, {kk, j}) + alpha * kb.load(B, {i, j}) * kb.load(A, {i, kk}),
                 C, {kk, j});
        kb.set(temp2, kb.get(temp2) + kb.load(B, {kk, j}) * kb.load(A, {i, kk}));
      });
      kb.store(beta * kb.load(C, {i, j}) + alpha * kb.load(B, {i, j}) * kb.load(A, {i, i}) +
                   alpha * kb.get(temp2),
               C, {i, j});
    });
  });
  k.function = kb.finish();
  init2(k.inputs, "C", M, N, [&](auto i, auto j) {
    return static_cast<double>((i + j) % 100) / M;
  });
  init2(k.inputs, "B", M, N, [&](auto i, auto j) {
    return static_cast<double>((N + i - j) % 100) / M;
  });
  init2(k.inputs, "A", M, M, [&](auto i, auto j) {
    if (j <= i) return static_cast<double>((i + j) % 100) / M;
    return 0.0; // upper triangle unused by the kernel (PolyBench poisons it)
  });
  k.inputs["temp2"].assign(1, 0.0);
  k.outputs = {"C"};
  return k;
}

BuiltKernel build_syrk(ir::Module& m, DatasetSize size) {
  const std::int64_t N = scaled(14, size), M = scaled(12, size);
  BuiltKernel k;
  k.name = "syrk";
  KernelBuilder kb(m, k.name);
  Array* C = kb.array("C", {N, N}, -kPlaceholder, kPlaceholder);
  Array* A = kb.array("A", {N, M}, -kPlaceholder, kPlaceholder);
  RVal alpha = kb.real(1.5), beta = kb.real(1.2);
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.for_loop("j", kb.idx(0), i + 1, [&](IVal j) {
      kb.store(kb.load(C, {i, j}) * beta, C, {i, j});
    });
    kb.for_loop("kk", 0, M, [&](IVal kk) {
      kb.for_loop("j", kb.idx(0), i + 1, [&](IVal j) {
        kb.store(kb.load(C, {i, j}) + alpha * kb.load(A, {i, kk}) * kb.load(A, {j, kk}),
                 C, {i, j});
      });
    });
  });
  k.function = kb.finish();
  init2(k.inputs, "A", N, M, [&](auto i, auto j) {
    return static_cast<double>((i * j + 1) % N) / N;
  });
  init2(k.inputs, "C", N, N, [&](auto i, auto j) {
    return static_cast<double>((i * j + 2) % M) / M;
  });
  k.outputs = {"C"};
  return k;
}

BuiltKernel build_syr2k(ir::Module& m, DatasetSize size) {
  const std::int64_t N = scaled(14, size), M = scaled(12, size);
  BuiltKernel k;
  k.name = "syr2k";
  KernelBuilder kb(m, k.name);
  Array* C = kb.array("C", {N, N}, -kPlaceholder, kPlaceholder);
  Array* A = kb.array("A", {N, M}, -kPlaceholder, kPlaceholder);
  Array* B = kb.array("B", {N, M}, -kPlaceholder, kPlaceholder);
  RVal alpha = kb.real(1.5), beta = kb.real(1.2);
  kb.for_loop("i", 0, N, [&](IVal i) {
    kb.for_loop("j", kb.idx(0), i + 1, [&](IVal j) {
      kb.store(kb.load(C, {i, j}) * beta, C, {i, j});
    });
    kb.for_loop("kk", 0, M, [&](IVal kk) {
      kb.for_loop("j", kb.idx(0), i + 1, [&](IVal j) {
        kb.store(kb.load(C, {i, j}) +
                     kb.load(A, {j, kk}) * alpha * kb.load(B, {i, kk}) +
                     kb.load(B, {j, kk}) * alpha * kb.load(A, {i, kk}),
                 C, {i, j});
      });
    });
  });
  k.function = kb.finish();
  init2(k.inputs, "A", N, M, [&](auto i, auto j) {
    return static_cast<double>((i * j + 1) % N) / N;
  });
  init2(k.inputs, "B", N, M, [&](auto i, auto j) {
    return static_cast<double>((i * j + 2) % M) / M;
  });
  init2(k.inputs, "C", N, N, [&](auto i, auto j) {
    return static_cast<double>((i * j + 3) % N) / M;
  });
  k.outputs = {"C"};
  return k;
}

BuiltKernel build_trmm(ir::Module& m, DatasetSize size) {
  const std::int64_t M = scaled(14, size), N = scaled(16, size);
  BuiltKernel k;
  k.name = "trmm";
  KernelBuilder kb(m, k.name);
  Array* A = kb.array("A", {M, M}, -kPlaceholder, kPlaceholder);
  Array* B = kb.array("B", {M, N}, -kPlaceholder, kPlaceholder);
  RVal alpha = kb.real(1.5);
  kb.for_loop("i", 0, M, [&](IVal i) {
    kb.for_loop("j", 0, N, [&](IVal j) {
      kb.for_loop("kk", i + 1, kb.idx(M), [&](IVal kk) {
        kb.store(kb.load(B, {i, j}) + kb.load(A, {kk, i}) * kb.load(B, {kk, j}),
                 B, {i, j});
      });
      kb.store(alpha * kb.load(B, {i, j}), B, {i, j});
    });
  });
  k.function = kb.finish();
  init2(k.inputs, "A", M, M, [&](auto i, auto j) {
    if (j < i) return static_cast<double>((i + j) % M) / M;
    return i == j ? 1.0 : 0.0; // strict upper triangle unused (PolyBench poisons it)
  });
  init2(k.inputs, "B", M, N, [&](auto i, auto j) {
    return static_cast<double>((N + (i - j)) % N) / N;
  });
  k.outputs = {"B"};
  return k;
}

} // namespace luis::polybench::detail
