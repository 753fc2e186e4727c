package repro.core

import org.scalatest.funsuite.AnyFunSuite

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
  private def counted(fn: DistFn[Point], calls: Array[Long]): DistFn[Point] = fn match {
    case WedFn(nm, c) => WedFn(nm, new WedCosts[Point] {
      def sub(a: Point, b: Point): Double = { calls(0) += 1; c.sub(a, b) }
      def del(a: Point): Double = c.del(a)
      def ins(b: Point): Double = c.ins(b)
    })
    case DtwFn(nm, s)     => DtwFn(nm, (a: Point, b: Point) => { calls(0) += 1; s(a, b) })
    case FrechetFn(nm, s) => FrechetFn(nm, (a: Point, b: Point) => { calls(0) += 1; s(a, b) })
  }

  test("searchBelow stops after the first row whose bound reaches the threshold") {
    val r = new Random(4)
    val d = TestGen.randPoints(r, 30)
    val q = IndexedSeq.fill(8)(Point(20 + r.nextDouble(), 20 + r.nextDouble())) // > 26 from every d point
    // DTW: row 1 alone proves the optimum >= 10. ERP: so do row 1 and
    // del(q1), with the gap point far from q too.
    for (fn <- Seq(Dist.dtw, Dist.erp(Point(40, 40)))) {
      val calls = Array(0L)
      assert(CMA.searchBelow(q, d, counted(fn, calls), 10.0).isEmpty)
      assert(calls(0) == d.length, fn.name)
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
  // that skips points of its window is matched along the ins-chain.
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

  // The ins-chain subtracts sub(q2, d2) = 0.4 ulp(1) from C[2][2], into
  // which adding it had rounded away: C[2][3] = 1 - 2^-53, below row 1's
  // bound min(1.0, del(q1) = 10). A check that stopped once a row bound
  // reached 1.0 would answer None here (DESIGN.md §3).
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

  test("the ins-chain rounds below a finished row's bound, and searchBelow still keeps the answer") {
    val q = IndexedSeq(0, 1); val d = IndexedSeq(10, 11, 12)
    for (x <- q; y <- d) assert(dip.costs.del(x) + dip.costs.ins(y) >= dip.costs.sub(x, y))
    val full = CMA.search(q, d, dip)
    assert(full == SubtrajResult(1, 3, Math.nextDown(1.0)))
    assert(CMA.searchBelow(q, d, dip, 1.0).contains(full))
    assert(CMA.searchBelow(q, d, dip, full.dist).isEmpty)
    assert(CMA.search(q, IndexedSeq(10, 12), dip).dist == 1.0)
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

  test("TopK.searchBelow keeps a hit one ulp under the k-th best") {
    val data = Seq(0L -> IndexedSeq(10, 12), 1L -> IndexedSeq(10, 11, 12))
    val want = TopK.cma(IndexedSeq(0, 1), data, 1, dip)
    assert(want.toSeq == Seq(TopK.Hit(1, 1, 3, Math.nextDown(1.0))))
    assert(TopK.searchBelow(IndexedSeq(0, 1), data, 1, below(dip)).toSeq == want.toSeq)
  }

  test("TopK.searchBelow hands the search the gate's k-th best") {
    val data = db(4, 8)
    val q = TestGen.randPoints(new Random(10), 4)
    val gated, searched = scala.collection.mutable.ArrayBuffer.empty[Double]
    TopK.searchBelow(q, data, 2, (a: IndexedSeq[Point], b: IndexedSeq[Point], kth: Double) => {
      searched += kth; CMA.searchBelow(a, b, Dist.dtw, kth)
    }, (_: IndexedSeq[Point], kth: Double) => { gated += kth; true })
    assert(searched.toSeq == gated.toSeq && gated.take(2).forall(_.isPosInfinity) && gated.drop(2).forall(_.isFinite))
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
