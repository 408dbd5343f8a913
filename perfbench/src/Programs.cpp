//===- perfbench/src/Programs.cpp -----------------------------------------===//

#include "Programs.h"

#include <algorithm>
#include <functional>
#include <iterator>

using namespace perfbench;

namespace {

std::string num(int64_t N) { return std::to_string(N); }

int64_t scaled(int64_t Full, double Scale) {
  return std::max<int64_t>(1, (int64_t)((double)Full * Scale));
}

constexpr int64_t P = 1000000007;

const char *IntListHelpers = R"(
fun build (n : int) (k : int) : int list =
  if n = 0 then [] else ((n * k) mod 1000) :: build (n - 1) k;

fun sum (xs : int list) : int =
  case xs of Nil => 0 | Cons(x, r) => x + sum r;

fun revAcc (xs : int list) (acc : int list) : int list =
  case xs of Nil => acc | Cons(x, r) => revAcc r (x :: acc);

fun rev (xs : int list) : int list = revAcc xs [];
)";

/// sum (build N K) by the definition above.
int64_t sumBuild(int64_t N, int64_t K) {
  int64_t S = 0;
  for (int64_t I = 1; I <= N; ++I)
    S += (I * K) % 1000;
  return S;
}

Family listChurn(Rng &R, double Scale) {
  const int64_t N = 400, Iters = scaled(40, Scale), K = R.range(1, 999);
  Family F{"list_churn",
           std::string(IntListHelpers) + R"(
fun churn (i : int) (acc : int) : int =
  if i = 0 then acc
  else churn (i - 1) ((acc * 31 + sum (rev (build )" +
               num(N) + " (i + " + num(K) + R"()))) mod 1000000007);
churn )" + num(Iters) + " 0\n",
           "", 48 << 10};
  int64_t Acc = 0;
  for (int64_t I = Iters; I >= 1; --I)
    Acc = (Acc * 31 + sumBuild(N, I + K)) % P;
  F.Expected = num(Acc);
  return F;
}

int64_t checkTree(int64_t D, int64_t V) {
  if (D == 0)
    return 0;
  return V + checkTree(D - 1, V * 2 % 1009) + checkTree(D - 1, V * 3 % 1009);
}

Family binaryTrees(Rng &R, double Scale) {
  const int64_t D = 10, LongD = 10, Iters = scaled(12, Scale),
                K = R.range(1, 999);
  Family F{"binary_trees", R"(
datatype tree = Leaf | Node of tree * int * tree;

fun make (d : int) (v : int) : tree =
  if d = 0 then Leaf
  else Node(make (d - 1) ((v * 2) mod 1009), v,
            make (d - 1) ((v * 3) mod 1009));

fun check (t : tree) : int =
  case t of Leaf => 0 | Node(l, v, r) => v + check l + check r;

val longLived = make )" + num(LongD) + " " + num(K) + R"(;

fun rounds (i : int) (acc : int) : int =
  if i = 0 then acc
  else rounds (i - 1) ((acc + check (make )" +
                                  num(D) + " (i + " + num(K) + R"())) mod 1000000007);
rounds )" + num(Iters) + " 0 + check longLived\n",
           "", 96 << 10};
  int64_t Acc = 0;
  for (int64_t I = Iters; I >= 1; --I)
    Acc = (Acc + checkTree(D, I + K)) % P;
  F.Expected = num(Acc + checkTree(LongD, K));
  return F;
}

Family generationalChurn(Rng &R, double Scale) {
  const int64_t Retained = 1000, N = 100, Iters = scaled(150, Scale),
                K = R.range(1, 999);
  Family F{"generational_churn",
           std::string(IntListHelpers) + R"(
val keep = build )" + num(Retained) + " " + num(K) + R"(;
val cell = ref ([] : int list);

fun churn (i : int) (acc : int) : int =
  if i = 0 then acc + sum (!cell)
  else (cell := i :: !cell;
        (if i mod 8 = 0 then cell := [] else ());
        churn (i - 1) ((acc + sum (build )" +
               num(N) + " (i + " + num(K) + R"())) mod 1000000007));

churn )" + num(Iters) + " 0 + sum keep\n",
           "", 64 << 10};
  int64_t Acc = 0, Cell = 0;
  for (int64_t I = Iters; I >= 1; --I) {
    Cell = I % 8 == 0 ? 0 : Cell + I;
    Acc = (Acc + sumBuild(N, I + K)) % P;
  }
  F.Expected = num(Acc + Cell + sumBuild(Retained, K));
  return F;
}

Family polyDeep(Rng &R, double Scale) {
  const int64_t Depth = 120, Alloc = 300, Iters = scaled(30, Scale),
                K = R.range(1, 999);
  Family F{"poly_deep",
           std::string(IntListHelpers) + R"(
fun len xs = case xs of Nil => 0 | Cons(_, r) => 1 + len r;

fun deep xs (d : int) (k : int) : int =
  if d = 0 then sum (build )" +
               num(Alloc) + R"( k) + len xs
  else deep xs (d - 1) k + len xs;

fun rounds (i : int) (acc : int) : int =
  if i = 0 then acc
  else rounds (i - 1)
         ((acc + deep [(i, true), ()" +
               num(K) + ", false)] " + num(Depth) + " (i + " + num(K) +
               R"()) mod 1000000007);
rounds )" + num(Iters) + " 0\n",
           "", 64 << 10};
  int64_t Acc = 0;
  for (int64_t I = Iters; I >= 1; --I)
    Acc = (Acc + sumBuild(Alloc, I + K) + 2 * (Depth + 1)) % P;
  F.Expected = num(Acc);
  return F;
}

Family symbolicDiff(Rng &R, double Scale) {
  const int Degree = 6, Order = 2;
  const int64_t Iters = scaled(60, Scale);
  int64_t C[Degree + 1];
  for (int64_t &Ck : C)
    Ck = R.range(1, 9);
  // sum_k C[k] * x^k, each power written out as a product chain so
  // deriv has products to expand and simp has work to undo.
  std::string Poly = "Num " + num(C[0]);
  for (int K = 1; K <= Degree; ++K) {
    std::string Pow = "Var";
    for (int J = 1; J < K; ++J)
      Pow = "Mul(Var, " + Pow + ")";
    Poly = "Add(Mul(Num " + num(C[K]) + ", " + Pow + "), " + Poly + ")";
  }
  Family F{"symbolic_diff", R"(
datatype expr =
    Num of int
  | Var
  | Add of expr * expr
  | Mul of expr * expr;

fun deriv (e : expr) : expr =
  case e of
    Num _ => Num 0
  | Var => Num 1
  | Add(a, b) => Add(deriv a, deriv b)
  | Mul(a, b) => Add(Mul(deriv a, b), Mul(a, deriv b));

fun simp (e : expr) : expr =
  case e of
    Num n => Num n
  | Var => Var
  | Add(a, b) =>
      (case (simp a, simp b) of
         (Num 0, sb) => sb
       | (sa, Num 0) => sa
       | (Num x, Num y) => Num (x + y)
       | (sa, sb) => Add(sa, sb))
  | Mul(a, b) =>
      (case (simp a, simp b) of
         (Num 0, _) => Num 0
       | (_, Num 0) => Num 0
       | (Num 1, sb) => sb
       | (sa, Num 1) => sa
       | (Num x, Num y) => Num (x * y)
       | (sa, sb) => Mul(sa, sb));

fun evalAt (e : expr) (x : int) : int =
  case e of
    Num n => n
  | Var => x
  | Add(a, b) => evalAt a x + evalAt b x
  | Mul(a, b) => evalAt a x * evalAt b x;

fun poly (u : int) : expr = )" + Poly + R"(;

fun derivN (e : expr) (n : int) : expr =
  if n = 0 then e else derivN (simp (deriv e)) (n - 1);

fun rounds (i : int) (acc : int) : int =
  if i = 0 then acc
  else rounds (i - 1)
         ((acc + evalAt (derivN (poly i) )" +
                                   num(Order) + R"() (i mod 5 + 1)) mod 1000000007);
rounds )" + num(Iters) + " 0\n",
           "", 24 << 10};
  // The Order-th derivative of the polynomial, evaluated exactly.
  int64_t Acc = 0;
  for (int64_t I = Iters; I >= 1; --I) {
    int64_t X = I % 5 + 1, V = 0;
    for (int K = Order; K <= Degree; ++K) {
      int64_t Term = C[K];
      for (int J = 0; J < Order; ++J)
        Term *= K - J;
      for (int J = 0; J < K - Order; ++J)
        Term *= X;
      V += Term;
    }
    Acc = (Acc + V) % P;
  }
  F.Expected = num(Acc);
  return F;
}

} // namespace

std::vector<Family> perfbench::gcFamilies(uint64_t Seed, double Scale) {
  Rng R(Seed);
  std::vector<Family> Out;
  Out.push_back(listChurn(R, Scale));
  Out.push_back(binaryTrees(R, Scale));
  Out.push_back(generationalChurn(R, Scale));
  Out.push_back(polyDeep(R, Scale));
  Out.push_back(symbolicDiff(R, Scale));
  return Out;
}

//===----------------------------------------------------------------------===//
// compile_large
//===----------------------------------------------------------------------===//

namespace {

const char *LargePrelude = R"(
datatype shape = Dot | Circle of int | Box of int * int;
datatype 'a tree = Tip | Bin of 'a tree * 'a * 'a tree;

fun mapL f xs = case xs of Nil => Nil | Cons(x, r) => Cons(f x, mapL f r);
fun foldT f acc xs = case xs of Nil => acc | Cons(x, r) => foldT f (f (acc, x)) r;
fun lenL xs = case xs of Nil => 0 | Cons(_, r) => 1 + lenL r;
fun upto (n : int) : int list = if n = 0 then [] else n :: upto (n - 1);
fun area (s : shape) : int =
  case s of Dot => 1 | Circle r => 3 * r * r | Box(w, h) => w * h;
fun ins (t : int tree) (k : int) : int tree =
  case t of
    Tip => Bin(Tip, k, Tip)
  | Bin(l, v, r) => if k < v then Bin(ins l k, v, r) else Bin(l, v, ins r k);
fun tsum (t : int tree) : int =
  case t of Tip => 0 | Bin(l, v, r) => tsum l + v + tsum r;
fun addK (k : int) : int -> int = fn y => y + k;
fun twice (f : int -> int) (y : int) : int = f (f y);
)";

constexpr unsigned NumTemplateKinds = 9;
/// Tree templates cycle through these multipliers for their keys: 1 and
/// 96 insert in order (a degenerate, deep tree), the rest interleave.
constexpr int64_t TreeStrides[] = {1, 3, 7, 12, 19, 26, 33, 41, 48, 96};
constexpr unsigned NumTreeStrides = std::size(TreeStrides);
constexpr unsigned GroupSize = 10;
constexpr int64_t GroupMod = 1000003;

} // namespace

LargeProgram perfbench::largeProgram(uint64_t Seed, unsigned Templates) {
  Rng R(Seed ^ 0x5EEDC0DEull);
  // The program's shape depends on the template index alone: its kind, its
  // list length, its tree's insertion order and the leaves it calls. The
  // seed changes only constants and arguments, which move no allocation
  // and no call depth, so every seed runs the same collections at the
  // same stack depths. The pause p99 sits on Appel's chain-walk ramp,
  // whose share the few deepest stacks set; seeded shapes moved it by
  // about 15% from seed to seed.
  std::string Src = LargePrelude;
  std::vector<std::function<int64_t(int64_t)>> Ref(Templates);
  std::vector<unsigned> Leaves; // Indices of non-calling templates so far.
  for (unsigned I = 0; I < Templates; ++I) {
    std::string Head = "fun f" + num(I) + " (x : int) : int =\n  ";
    int64_t A = R.range(1, 50), B = R.range(1, 50);
    int64_t N = 6 + I % 7;
    unsigned Kind = I % NumTemplateKinds;
    if (Kind == 8 && Leaves.size() < 2)
      Kind = 0;
    switch (Kind) {
    case 0: // Arithmetic.
      Src += Head + "(x * " + num(A) + " + " + num(B) + ") mod 1009;\n";
      Ref[I] = [A, B](int64_t X) { return (X * A + B) % 1009; };
      break;
    case 1: // Polymorphic map/fold with closures capturing x.
      Src += Head + "foldT (fn (s, y) => (s * 3 + y) mod 1009) " + num(B) +
             " (mapL (fn y => y * " + num(A) + " + x) (upto " + num(N) +
             "));\n";
      Ref[I] = [A, B, N](int64_t X) {
        int64_t S = B;
        for (int64_t Y = N; Y >= 1; --Y)
          S = (S * 3 + Y * A + X) % 1009;
        return S;
      };
      break;
    case 2: // A datatype with nullary/unary/binary constructors.
      Src += Head + "let val ss = [Dot, Circle (x mod 7 + " + num(A % 20) +
             "), Box(" + num(B) +
             ", x mod 5 + 1)] in foldT (fn (s, sh) => (s + area sh) mod "
             "1009) 0 ss end;\n";
      Ref[I] = [A, B](int64_t X) {
        int64_t Rad = X % 7 + A % 20;
        int64_t S = 1 % 1009;
        S = (S + 3 * Rad * Rad) % 1009;
        return (S + B * (X % 5 + 1)) % 1009;
      };
      break;
    case 3: // Ref cells.
      Src += Head + "let val r = ref (x + " + num(A) + ") in (r := (!r * " +
             num(B) + ") mod 1009; r := !r + " + num(A) + "; !r) end;\n";
      Ref[I] = [A, B](int64_t X) { return (X + A) * B % 1009 + A; };
      break;
    case 4: { // Floats; z is never integral, so the compare has no tie.
      int64_t Off = R.range(0, 20), T = R.range(5, 40);
      Src += Head + "let val z = real (x mod 64) *. 0.5 +. " + num(Off) +
             ".25 in if z <. " + num(T) + ".0 then " + num(A) + " else " +
             num(B + 100) + " end;\n";
      Ref[I] = [A, B, Off, T](int64_t X) {
        double Z = (double)(X % 64) * 0.5 + (double)Off + 0.25;
        return Z < (double)T ? A : B + 100;
      };
      break;
    }
    case 5: { // Polymorphic datatype built by a folded closure.
      // The stride fixes the keys' order, so the tree's shape; x and A
      // only shift every key.
      int64_t Stride = TreeStrides[I / NumTemplateKinds % NumTreeStrides];
      Src += Head + "tsum (foldT (fn (t, k) => ins t ((k * " + num(Stride) +
             ") mod 97 + x + " + num(A) + ")) Tip (upto " + num(N) +
             ")) mod 1009;\n";
      Ref[I] = [A, N, Stride](int64_t X) {
        int64_t S = 0;
        for (int64_t K = 1; K <= N; ++K)
          S += (K * Stride) % 97 + X + A;
        return S % 1009;
      };
      break;
    }
    case 6: // A returned closure applied through a higher-order function.
      Src += Head + "let val g = addK (x + " + num(A) + ") in twice g " +
             num(B) + " mod 1009 end;\n";
      Ref[I] = [A, B](int64_t X) { return (B + 2 * (X + A)) % 1009; };
      break;
    case 7: // A generated polymorphic helper used at two types.
      Src += "fun h" + num(I) + " xs (k : int) = if k = 0 then lenL xs else h" +
             num(I) + " xs (k - 1) + 1;\n";
      Src += Head + "h" + num(I) + " [true, false] (x mod 4) + h" + num(I) +
             " [x, " + num(A) + "] " + num(A % 3) + ";\n";
      Ref[I] = [A](int64_t X) { return 2 + X % 4 + 2 + A % 3; };
      break;
    case 8: { // Calls two earlier leaf functions.
      unsigned J = Leaves[(size_t)I * 7 % Leaves.size()];
      unsigned K = Leaves[((size_t)I * 13 + 5) % Leaves.size()];
      Src += Head + "(f" + num(J) + " (x + " + num(A) + ") + f" + num(K) +
             " ((x * " + num(B % 20 + 1) + ") mod 101)) mod 1009;\n";
      auto FJ = Ref[J], FK = Ref[K];
      Ref[I] = [FJ, FK, A, B](int64_t X) {
        return (FJ(X + A) + FK(X * (B % 20 + 1) % 101)) % 1009;
      };
      break;
    }
    }
    if (Kind != 8)
      Leaves.push_back(I);
  }

  // Groups of GroupSize calls, chained through top-level vals.
  int64_t Total = 0;
  unsigned Groups = (Templates + GroupSize - 1) / GroupSize;
  for (unsigned G = 0; G < Groups; ++G) {
    std::string Body = "(acc";
    int64_t Acc = Total;
    for (unsigned I = G * GroupSize; I < std::min(Templates, (G + 1) * GroupSize);
         ++I) {
      int64_t Arg = R.range(0, 199);
      Body += " + f" + num(I) + " " + num(Arg);
      Acc += Ref[I](Arg);
    }
    Total = Acc % GroupMod;
    Src += "fun g" + num(G) + " (acc : int) : int = " + Body + ") mod " +
           num(GroupMod) + ";\n";
    // t<G+1> = g<G> t<G>, starting from 0.
    Src += "val t" + num(G + 1) + " = g" + num(G) +
           (G == 0 ? std::string(" 0") : " t" + num(G)) + ";\n";
  }
  Src += "t";
  Src += num(Groups) + "\n";
  return {Src, num(Total)};
}

//===----------------------------------------------------------------------===//
// parallel_gc
//===----------------------------------------------------------------------===//

WorkerProgram perfbench::workerProgram(uint64_t Seed, unsigned Tasks,
                                       double Scale) {
  Rng R(Seed ^ 0x7A5C5ull);
  const int64_t Len = 24, K = R.range(1, 999), Iters = scaled(3000, Scale);
  WorkerProgram W;
  W.Source = std::string(IntListHelpers) + R"(
fun worker (seed : int) (iters : int) : int =
  if iters = 0 then seed
  else worker ((seed + sum (rev (build )" +
             num(Len) + " ((seed + iters) mod 1000 + " + num(K) +
             R"()))) mod 100003)
              (iters - 1);
worker 1 1
)";
  for (unsigned T = 0; T < Tasks; ++T) {
    int64_t S = R.range(1, 100000);
    W.TaskArgs.push_back({S, Iters});
    for (int64_t I = Iters; I >= 1; --I)
      S = (S + sumBuild(Len, (S + I) % 1000 + K)) % 100003;
    W.Expected.push_back(num(S));
  }
  return W;
}
