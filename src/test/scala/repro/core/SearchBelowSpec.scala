package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.immutable.ArraySeq
import scala.util.Random

/** `CMA.searchBelow`: `Some(search(q, d, fn))` iff its distance is below the
  * bound, else `None`, on every kernel; abandoning mid-DP never changes a
  * top-K hit; an infinite bound never drops an answer, NaN included.
  */
class SearchBelowSpec extends AnyFunSuite {

  /** Asserts the contract at bound `b`. */
  private def assertBelow[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T], b: Double): Unit = {
    val full = CMA.search(q, d, fn)
    val got = CMA.searchBelow(q, d, fn, b)
    if (full.dist < b) assert(got.contains(full), s"${fn.name} bound $b: $got, want $full")
    else assert(got.isEmpty, s"${fn.name} bound $b: $got, want None (optimum ${full.dist})")
  }

  /** One ulp below, at and above the optimum, and random values up to twice it. */
  private def bounds(dist: Double, r: Random): Seq[Double] =
    Seq(Math.nextDown(dist), dist, Math.nextUp(dist)) ++ Seq.fill(5)(r.nextDouble() * 2 * dist)

  for (fn <- TestGen.pointFns; seed <- 0 until 12)
    test(s"searchBelow == search iff below the bound, and brute force agrees [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 13 + 5)
      val r = new Random(seed)
      val full = CMA.search(q, d, fn)
      TestGen.assertSameDist(full.dist, BruteForce.search(q, d, fn).dist)
      for (b <- bounds(full.dist, r)) assertBelow(q, d, fn, b)
      assert(CMA.searchBelow(q, d, fn, Double.PositiveInfinity).contains(full))
    }

  /** `fn` with its `sub` calls counted into `calls(0)`. */
  private def counted[T](fn: DistFn[T], calls: Array[Long]): DistFn[T] = fn match {
    case WedFn(nm, c) => WedFn(nm, new WedCosts[T] {
      def sub(a: T, b: T): Double = { calls(0) += 1; c.sub(a, b) }
      def del(a: T): Double = c.del(a)
      def ins(b: T): Double = c.ins(b)
    })
    case DtwFn(nm, s)     => DtwFn(nm, (a: T, b: T) => { calls(0) += 1; s(a, b) })
    case FrechetFn(nm, s) => FrechetFn(nm, (a: T, b: T) => { calls(0) += 1; s(a, b) })
  }

  /** [[RowCosts]] whose `subRow` gathers `sub`, with its calls (DP rows)
    * counted.
    */
  private abstract class CountedRows extends RowCosts {
    var rows = 0L
    def subRow(a: Int, ds: Array[Int], out: Array[Double]): Unit = {
      rows += 1
      var j = 0
      while (j < ds.length) { out(j + 1) = sub(a, ds(j)); j += 1 }
    }
  }

  /** EDR over integer ids on a line: ids within 1 of each other match. */
  private final class LineEdr extends CountedRows {
    def sub(a: Int, b: Int): Double = if (math.abs(a - b) <= 1) 0.0 else 1.0
    def del(a: Int): Double = 1.0
    def ins(b: Int): Double = 1.0
  }

  test("searchBelow stops after the first row whose bound reaches the threshold") {
    val r = new Random(4)
    val d = TestGen.randPoints(r, 30)
    val q = IndexedSeq.fill(8)(Point(20 + r.nextDouble(), 20 + r.nextDouble())) // > 26 from every d point
    // DTW, FD: row 1 alone proves the optimum >= 10. ERP: so do row 1 and
    // del(q1), with the gap point far from q too.
    for (fn <- Seq(Dist.dtw, Dist.fd, Dist.erp(Point(40, 40)))) {
      val calls = Array(0L)
      assert(CMA.searchBelow(q, d, counted(fn, calls), 10.0).isEmpty)
      assert(calls(0) == d.length, fn.name)
    }
    // EDR: no q point matches, so row i's bound is exactly i, and a row
    // bound equal to the threshold stops the search at that row.
    for (b <- Seq(1, 3)) {
      val calls = Array(0L)
      assert(CMA.searchBelow(q, d, counted(Dist.edr(0.3), calls), b.toDouble).isEmpty)
      assert(calls(0) == b * d.length, s"EDR bound $b")
      val line = new LineEdr
      assert(CMA.searchBelow(IndexedSeq.range(100, 108), IndexedSeq.range(0, 30), WedFn("LineEDR", line), b.toDouble).isEmpty)
      assert(line.rows == b, s"LineEDR bound $b")
    }
    // A gap point among the query points makes deleting the query head
    // cheap: del(q[1:i]) stays below 10, so no row can stop the search.
    val calls = Array(0L)
    CMA.searchBelow(q, d, counted(Dist.erp(Point(20.5, 20.5)), calls), 10.0)
    assert(calls(0) == q.length * d.length)
  }

  test("realistic pairs abandon below the optimum and keep every answer") {
    val calls = Array(0L)
    var full = 0L
    for (fn <- TestGen.pointFns; seed <- 0 until 30) {
      val (q, d) = TestGen.randPair(seed * 17 + 3, mMax = 12, nMax = 30)
      val opt = CMA.search(q, d, fn).dist
      assert(CMA.searchBelow(q, d, counted(fn, calls), opt / 2).isEmpty)
      full += q.length.toLong * d.length
    }
    info(s"${calls(0)} of $full cells evaluated below half the optimum")
    assert(calls(0) < full * 3 / 4)
  }

  // ERP whose gap point sits on the query head: deleting it costs almost
  // nothing, and the rest of the query is a mid-trajectory window of d, so
  // the optimum opens the window with a fresh start at j > 1.
  test("searchBelow under ERP when a fresh-start window wins") {
    for (seed <- 0 until 20) {
      val r = new Random(seed)
      val d = TestGen.randPoints(r, 10 + r.nextInt(15))
      val from = 2 + r.nextInt(5)
      val g = Point(3 + r.nextDouble(), 3 + r.nextDouble())
      val q = Point(g.x + 1e-3, g.y) +: d.slice(from, from + 2 + r.nextInt(4))
      val fn = Dist.erp(g)
      val full = CMA.search(q, d, fn)
      assert(full.start == from + 1 && full.dist <= 1e-3 + 1e-12, s"seed $seed: $full")
      TestGen.assertSameDist(full.dist, BruteForce.search(q, d, fn).dist)
      for (b <- bounds(full.dist, r)) assertBelow(q, d, fn, b)
    }
  }

  // Cheap insertions and dear deletions (del + ins = 1.1 >= sub): a query
  // that skips points of its window is matched across inserted gaps.
  test("searchBelow under custom WED when the ins-chain wins") {
    val fn = TestGen.wedCustom[Point]("WEDI", (a, b) => math.min(a.distTo(b), 1.1), _ => 1.0, _ => 0.1)
    for (seed <- 0 until 20) {
      val r = new Random(seed)
      val d = TestGen.randPoints(r, 12 + r.nextInt(12), scale = 10.0)
      val from = r.nextInt(4)
      val window = d.slice(from, from + 6 + r.nextInt(4))
      val q = window.head +: window.tail.init.filter(_ => r.nextBoolean()) :+ window.last
      val full = CMA.search(q, d, fn)
      assert(full.end - full.start + 1 > q.length || q.length == window.length, s"seed $seed: $full")
      TestGen.assertSameDist(full.dist, BruteForce.search(q, d, fn).dist)
      for (b <- bounds(full.dist, r)) assertBelow(q, d, fn, b)
    }
  }

  // Costs of a few ulps of 1.0, which vanish when added to 1.0. Row 1's
  // bound is 1.0; the window [1, 3] (q1 -> d1, insert d2, q2 -> d3) costs
  // exactly 1.0, and [1, 2] rounds to it: C[2][2] = fl(1.0 + tiny) = 1.0.
  private val tiny = 0.4 * Math.ulp(1.0)
  private val dip = WedFn("dip", new WedCosts[Int] {
    def sub(a: Int, b: Int): Double = (a, b) match {
      case (0, 10) => 1.0
      case (0, _)  => 10.0
      case (1, 11) => tiny
      case _       => 0.0
    }
    def del(a: Int): Double = if (a == 0) 10.0 else 1.0
    def ins(b: Int): Double = 0.0
  })

  test("ulp-scale WED costs: a row bound equal to the threshold stops") {
    val q = IndexedSeq(0, 1); val d = IndexedSeq(10, 11, 12)
    val full = CMA.search(q, d, dip)
    assert(full.dist == 1.0 && full.start == 1)
    val calls = Array(0L)
    assert(CMA.searchBelow(q, d, counted(dip, calls), 1.0).isEmpty)
    assert(calls(0) == d.length)
    assert(CMA.searchBelow(q, d, dip, Math.nextUp(1.0)).contains(full))
    assert(CMA.search(q, IndexedSeq(10, 12), dip).dist == 1.0)
  }

  /** Random ulp-scale WED over ids `0 until 6` as [[RowCosts]]: `sub` is 0,
    * a few `tiny`, 1.0 or 1.0 plus an ulp or two, so sums round; `del(a)`
    * is at least every `sub(a, _)`, so `del + ins >= sub` holds.
    */
  private def ulpCosts(r: Random): RowCosts = {
    val subT = Array.fill(6, 6)(r.nextInt(4) match {
      case 0 => 0.0
      case 1 => r.nextInt(4) * tiny
      case 2 => 1.0
      case _ => 1.0 + r.nextInt(3) * Math.ulp(1.0)
    })
    val delT = subT.map(row => row.max + r.nextInt(2) * tiny)
    val insT = Array.fill(6)(r.nextInt(3) * tiny)
    new CountedRows {
      def sub(a: Int, b: Int): Double = subT(a)(b)
      def del(a: Int): Double = delT(a)
      def ins(b: Int): Double = insT(b)
    }
  }

  for (kernel <- Seq("row", "fused"); seed <- 0 until 12)
    test(s"searchBelow == search iff below the bound, and brute force agrees [ulp WED $kernel kernel seed=$seed]") {
      val r = new Random(seed + 40)
      for (_ <- 0 until 20) {
        val c = ulpCosts(r)
        val fn = WedFn[Int]("ulpWED", if (kernel == "row") c else new WedCosts[Int] {
          def sub(a: Int, b: Int): Double = c.sub(a, b)
          def del(a: Int): Double = c.del(a)
          def ins(b: Int): Double = c.ins(b)
        })
        val q = ArraySeq.fill(1 + r.nextInt(6))(r.nextInt(6))
        val d = ArraySeq.fill(1 + r.nextInt(12))(r.nextInt(6))
        val full = CMA.search(q, d, fn)
        TestGen.assertSameDist(full.dist, BruteForce.search(q, d, fn).dist)
        for (b <- bounds(full.dist, r)) assertBelow(q, d, fn, b)
      }
    }

  private def db(seed: Int, n: Int): Seq[(Long, IndexedSeq[Point])] = {
    val r = new Random(seed)
    (0 until n).map(i => (i.toLong, TestGen.randPoints(r, 4 + r.nextInt(16))))
  }

  private def below[T](fn: DistFn[T]): (IndexedSeq[T], IndexedSeq[T], Double) => Option[SubtrajResult] =
    (a, b, kth) => CMA.searchBelow(a, b, fn, kth)

  for (fn <- TestGen.pointFns; k <- Seq(1, 3, 10, 30))
    test(s"TopK.searchBelow with CMA.searchBelow == TopK.cma, hit for hit [${fn.name} k=$k]") {
      for (seed <- 0 until 4) {
        val data = db(seed * 5 + k, 30)
        val q = TestGen.randPoints(new Random(seed + 100), 3 + seed)
        assert(TopK.searchBelow(q, data, k, below(fn)).toSeq == TopK.cma(q, data, k, fn).toSeq)
      }
    }

  // Trajectory 0's optimum is 0.5 + 0.5 = 1.0; trajectory 1's is 0.5 +
  // (1 - 2^-53 - 0.5) = 1 - 2^-53, both exact sums.
  private val halves = WedFn("halves", new WedCosts[Int] {
    def sub(a: Int, b: Int): Double = (a, b) match {
      case (0, 10) | (0, 20) | (1, 12) => 0.5
      case (1, 21)                     => Math.nextDown(1.0) - 0.5
      case _                           => 10.0
    }
    def del(a: Int): Double = 10.0
    def ins(b: Int): Double = 10.0
  })

  test("TopK.searchBelow keeps a hit one ulp under the k-th best") {
    val data = Seq(0L -> IndexedSeq(10, 12), 1L -> IndexedSeq(20, 21))
    val want = TopK.cma(IndexedSeq(0, 1), data, 1, halves)
    assert(want.toSeq == Seq(TopK.Hit(1, 1, 2, Math.nextDown(1.0))))
    assert(TopK.searchBelow(IndexedSeq(0, 1), data, 1, below(halves)).toSeq == want.toSeq)
  }

  /** Distances compared by bits, so NaN equals NaN. */
  private def bits(r: SubtrajResult) = (r.start, r.end, java.lang.Double.doubleToLongBits(r.dist))

  test("a NaN coordinate: search answers, and an infinite bound returns that answer") {
    val r = new Random(6)
    for (fn <- TestGen.pointFns; at <- Seq(0, 3)) {
      val d = TestGen.randPoints(r, 8)
      val q = TestGen.randPoints(r, 5).updated(at, Point(Double.NaN, 0.5))
      for ((a, b) <- Seq((q, d), (d.take(5), q ++ d))) {
        val full = CMA.search(a, b, fn)
        assert(CMA.searchBelow(a, b, fn, Double.PositiveInfinity).map(bits).contains(bits(full)), fn.name)
      }
    }
  }

  test("a NaN data point ranks as in TopK.cma") {
    val data = db(9, 10).map { case (id, d) => if (id % 4 == 1) (id, d.updated(d.length / 2, Point(0.5, Double.NaN))) else (id, d) }
    val q = TestGen.randPoints(new Random(3), 4)
    for (fn <- TestGen.pointFns; k <- Seq(1, 3, 10)) {
      def key(hs: Array[TopK.Hit]) = hs.toSeq.map(h => (h.trajId, h.start, h.end, java.lang.Double.doubleToLongBits(h.dist)))
      assert(key(TopK.searchBelow(q, data, k, below(fn))) == key(TopK.cma(q, data, k, fn)), s"${fn.name} k=$k")
    }
  }
}
