package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** CMA correctness: exactness against the O(mn³) brute force over every
  * distance family, achievability of the returned interval, and the paper's
  * worked-example settings.
  */
class CMASpec extends AnyFunSuite {

  private val Tol = 1e-9

  private def check[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): Unit = {
    val cma   = CMA.search(q, d, fn)
    val brute = BruteForce.search(q, d, fn)
    TestGen.assertSameDist(cma.dist, brute.dist)
    // The returned interval must achieve the reported distance.
    val achieved = FullDist.dist(q, d.slice(cma.start - 1, cma.end), fn)
    TestGen.assertSameDist(achieved, cma.dist)
    assert(cma.start >= 1 && cma.end <= d.length && cma.start <= cma.end)
  }

  // --- randomized exactness: every fn family × many seeds ---
  for (fn <- TestGen.pointFns; seed <- 0 until 24)
    test(s"CMA == brute force [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 7 + fn.name.hashCode % 97)
      check(q, d, fn)
    }

  // --- unit-cost WED on character sequences (paper Figure 4/5 setting) ---
  private val wed = TestGen.wedUnit[Char]

  test("WED: exact substring gives distance 0 at the right interval") {
    val r = CMA.search("abc".toIndexedSeq, "xxabcyy".toIndexedSeq, wed)
    assert(r.dist == 0.0)
    assert(r.start == 3 && r.end == 5)
  }

  test("WED: single substitution inside the best window") {
    val r = CMA.search("abc".toIndexedSeq, "xxaZcyy".toIndexedSeq, wed)
    assert(r.dist == 1.0)
  }

  test("WED: deletion of one query point") {
    val r = CMA.search("abXc".toIndexedSeq, "qqabcqq".toIndexedSeq, wed)
    assert(r.dist == 1.0)
  }

  test("WED: insertion of one data point") {
    val r = CMA.search("abc".toIndexedSeq, "qqabZcqq".toIndexedSeq, wed)
    assert(r.dist == 1.0)
  }

  test("WED: prefix/suffix of data trajectory are free (Theorem 4.1)") {
    // Whole-trajectory WED would pay for the long prefix; subtrajectory must not.
    val far = CMA.search("ab".toIndexedSeq, "zzzzzzzzab".toIndexedSeq, wed)
    assert(far.dist == 0.0 && far.start == 9 && far.end == 10)
  }

  for (seed <- 0 until 20)
    test(s"WED chars: CMA == brute force [seed=$seed]") {
      val r = new scala.util.Random(seed)
      val alphabet = "abcd"
      val d = IndexedSeq.fill(2 + r.nextInt(14))(alphabet(r.nextInt(alphabet.length)))
      val q = IndexedSeq.fill(1 + r.nextInt(6))(alphabet(r.nextInt(alphabet.length)))
      check(q, d, wed)
    }

  // --- DTW specifics ---
  test("DTW: repeated matching absorbs oversampled query") {
    // q oversamples one location; best window is the matching single point.
    val q = IndexedSeq(Point(1, 1), Point(1, 1), Point(1, 1))
    val d = IndexedSeq(Point(9, 9), Point(1, 1), Point(7, 7))
    val r = CMA.search(q, d, Dist.dtw)
    assert(r.dist == 0.0 && r.start == 2 && r.end == 2)
  }

  test("DTW: Eq. 8 j=1 column accumulates substitutions") {
    val q = IndexedSeq(Point(0, 0), Point(3, 4))
    val d = IndexedSeq(Point(0, 0))
    val r = CMA.search(q, d, Dist.dtw)
    TestGen.assertSameDist(r.dist, 5.0) // 0 + dist((3,4),(0,0))
  }

  // --- FD specifics ---
  test("FD: bottleneck distance of perfect window is 0") {
    val d = TestGen.randPoints(new scala.util.Random(3), 12)
    val q = d.slice(4, 9)
    val r = CMA.search(q, d, Dist.fd)
    assert(r.dist == 0.0 && r.start == 5 && r.end == 9)
  }

  test("FD: Eq. 9 takes max of path minimum and sub") {
    val q = IndexedSeq(Point(0, 0), Point(10, 0))
    val d = IndexedSeq(Point(0, 1), Point(10, 1))
    val r = CMA.search(q, d, Dist.fd)
    TestGen.assertSameDist(r.dist, 1.0)
  }

  // --- edge cases ---
  test("edge: m = 1 picks nearest point") {
    val q = IndexedSeq(Point(5, 5))
    val d = IndexedSeq(Point(0, 0), Point(5, 5.1), Point(9, 9))
    val r = CMA.search(q, d, Dist.dtw)
    assert(r.start == 2 && r.end == 2)
    TestGen.assertSameDist(r.dist, 0.1, 1e-6)
  }

  test("edge: n = 1 forces the single-point subtrajectory") {
    for (fn <- TestGen.pointFns) {
      val (q, _) = TestGen.randPair(91)
      val d = IndexedSeq(Point(0.4, 0.4))
      val r = CMA.search(q, d, fn)
      assert(r.start == 1 && r.end == 1)
      TestGen.assertSameDist(r.dist, FullDist.dist(q, d, fn))
    }
  }

  test("edge: m = n = 1") {
    val r = CMA.search(IndexedSeq(Point(0, 0)), IndexedSeq(Point(3, 4)), Dist.dtw)
    TestGen.assertSameDist(r.dist, 5.0)
  }

  test("edge: query much longer than data") {
    for (fn <- TestGen.pointFns; seed <- 0 until 4) {
      val r = new scala.util.Random(seed + 400)
      val q = TestGen.randPoints(r, 12)
      val d = TestGen.randPoints(r, 3)
      check(q, d, fn)
    }
  }

  test("empty trajectories are rejected") {
    intercept[IllegalArgumentException] {
      CMA.search(IndexedSeq.empty[Point], IndexedSeq(Point(0, 0)), Dist.dtw)
    }
    intercept[IllegalArgumentException] {
      CMA.search(IndexedSeq(Point(0, 0)), IndexedSeq.empty[Point], Dist.dtw)
    }
  }

  // --- Eq. 7 evaluates each cost once: m·n sub, n ins, m del ---
  private final class CountingCosts[T](c: WedCosts[T]) extends WedCosts[T] {
    var subs, dels, inss = 0
    def sub(a: T, b: T): Double = { subs += 1; c.sub(a, b) }
    def del(a: T): Double = { dels += 1; c.del(a) }
    def ins(b: T): Double = { inss += 1; c.ins(b) }
  }

  private def checkCounts[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: WedFn[T]): Unit = {
    val counted = new CountingCosts(fn.costs)
    val r = CMA.search(q, d, WedFn(fn.name, counted))
    val (m, n) = (q.length, d.length)
    assert((counted.subs, counted.inss, counted.dels) == ((m * n, n, m)),
      s"${fn.name} m=$m n=$n: (sub, ins, del) calls")
    assert(r == CMA.search(q, d, fn))
  }

  test("WED-family CMA evaluates m*n sub, n ins and m del costs") {
    val pointWeds = Seq(Dist.edr(0.3), Dist.erp(Point(0.5, 0.5)))
    for (fn <- pointWeds; seed <- 0 until 12) {
      val (q, d) = TestGen.randPair(seed + 700)
      checkCounts(q, d, fn)
    }
    for (fn <- pointWeds; (m, n) <- Seq((1, 1), (1, 7), (6, 1), (3, 3))) {
      val r = new scala.util.Random(m * 31 + n)
      checkCounts(TestGen.randPoints(r, m), TestGen.randPoints(r, n), fn)
    }
    for ((q, d) <- Seq(("a", "a"), ("a", "xxaxy"), ("abXc", "b"), ("abXc", "qqabcqq")))
      checkCounts(q.toIndexedSeq, d.toIndexedSeq, wed)
  }

  test("CMA optimum is never above any single full distance (Eq. 5 direction)") {
    for (seed <- 0 until 8) {
      val (q, d) = TestGen.randPair(seed + 600)
      for (fn <- TestGen.pointFns) {
        val r = CMA.search(q, d, fn)
        assert(r.dist <= FullDist.dist(q, d, fn) + Tol)
      }
    }
  }
}
