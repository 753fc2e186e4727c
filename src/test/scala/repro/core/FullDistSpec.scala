package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Full-trajectory distance DPs: the fast PrefixDP path must agree with the
  * independent reference matrices (Eq. 2, Eq. 3, discrete Fréchet), and both
  * must match hand-computed values.
  */
class FullDistSpec extends AnyFunSuite {

  for (fn <- TestGen.pointFns; seed <- 0 until 15)
    test(s"PrefixDP dist == reference matrix [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 13 + 1)
      TestGen.assertSameDist(FullDist.dist(q, d, fn), ReferenceDist.dist(q, d, fn))
    }

  // --- hand-computed WED (= Levenshtein with unit costs) ---
  private val wed = TestGen.wedUnit[Char]
  private def lev(a: String, b: String): Double =
    FullDist.dist(a.toIndexedSeq, b.toIndexedSeq, wed)

  test("WED unit == Levenshtein: kitten/sitting = 3") { assert(lev("kitten", "sitting") == 3.0) }
  test("WED unit: identical = 0") { assert(lev("abcde", "abcde") == 0.0) }
  test("WED unit: empty query = all inserts") { assert(lev("", "abcd") == 4.0) }
  test("WED unit: empty data = all deletes") { assert(lev("abcd", "") == 4.0) }
  test("WED unit: flaw/lawn = 2") { assert(lev("flaw", "lawn") == 2.0) }
  test("WED unit symmetry on unit costs") {
    for (s <- 0 until 6) {
      val r = new scala.util.Random(s)
      val a = IndexedSeq.fill(1 + r.nextInt(8))("abc" (r.nextInt(3)))
      val b = IndexedSeq.fill(1 + r.nextInt(8))("abc" (r.nextInt(3)))
      assert(FullDist.dist(a, b, wed) == FullDist.dist(b, a, wed))
    }
  }

  // --- hand-computed DTW ---
  private def p(xs: Double*): IndexedSeq[Point] = xs.map(Point(_, 0)).toIndexedSeq

  test("DTW: identical series = 0") {
    assert(FullDist.dist(p(1, 2, 3), p(1, 2, 3), Dist.dtw) == 0.0)
  }
  test("DTW: oversampling is free") {
    assert(FullDist.dist(p(1, 1, 2, 3), p(1, 2, 3), Dist.dtw) == 0.0)
    assert(FullDist.dist(p(1, 2, 3), p(1, 2, 2, 3, 3), Dist.dtw) == 0.0)
  }
  test("DTW: simple offset") {
    // every point pays |1| against a flat reference
    assert(FullDist.dist(p(1, 1, 1), p(0, 0, 0), Dist.dtw) == 3.0)
  }

  // --- hand-computed Fréchet ---
  test("FD: constant offset curves") {
    val q = IndexedSeq(Point(0, 0), Point(1, 0), Point(2, 0))
    val d = IndexedSeq(Point(0, 2), Point(1, 2), Point(2, 2))
    assert(FullDist.dist(q, d, Dist.fd) == 2.0)
  }
  test("FD: is the max, not the sum") {
    val q = IndexedSeq(Point(0, 0), Point(1, 0))
    val d = IndexedSeq(Point(0, 1), Point(1, 3))
    assert(FullDist.dist(q, d, Dist.fd) == 3.0)
  }
  test("FD <= DTW on the same pair (bottleneck vs sum, single-matching)") {
    for (seed <- 0 until 10) {
      val (q, d) = TestGen.randPair(seed + 77)
      assert(FullDist.dist(q, d, Dist.fd) <= FullDist.dist(q, d, Dist.dtw) + 1e-9)
    }
  }

  // --- EDR / ERP semantics ---
  test("EDR is integral and bounded by m + n") {
    for (seed <- 0 until 10) {
      val (q, d) = TestGen.randPair(seed + 31)
      val v = FullDist.dist(q, d, Dist.edr(0.3))
      assert(v == math.rint(v))
      assert(v >= 0 && v <= q.length + d.length)
    }
  }
  test("EDR of identical trajectories = 0") {
    val t = TestGen.randPoints(new scala.util.Random(5), 9)
    assert(FullDist.dist(t, t, Dist.edr(0.1)) == 0.0)
  }
  test("ERP of identical trajectories = 0") {
    val t = TestGen.randPoints(new scala.util.Random(6), 9)
    assert(FullDist.dist(t, t, Dist.erp(Point(0.5, 0.5))) == 0.0)
  }
  test("ERP respects the gap-point cost for pure insertion") {
    val g = Point(0, 0)
    val q = IndexedSeq(Point(1, 0))
    val d = IndexedSeq(Point(1, 0), Point(0, 3))
    // match (1,0) exactly, insert (0,3) at cost d((0,3), g) = 3
    TestGen.assertSameDist(FullDist.dist(q, d, Dist.erp(g)), 3.0)
  }

  test("reversal invariance (used by PSS suffix table)") {
    for (fn <- TestGen.pointFns; seed <- 0 until 5) {
      val (q, d) = TestGen.randPair(seed + 210)
      TestGen.assertSameDist(
        FullDist.dist(q, d, fn),
        FullDist.dist(q.reverse, d.reverse, fn), 1e-9)
    }
  }
}
