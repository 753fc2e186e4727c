package repro.pruning

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.eval.Workloads
import repro.network.{NetDist, RoadNetwork}

import scala.util.Random

/** `PointGrid` and the grid-indexed KPF bound: every nearest distance, EDR
  * decision and KPF estimate equals the m·n scan's bit for bit, on
  * adversarial point sets and non-finite inputs. PruningSpec checks the
  * resulting pruning decisions on Beijing-sized searches.
  */
class PointGridSpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  private def scanNearest(q: Point, d: IndexedSeq[Point]): Double = ScanOracles.pointMinCost(q, d, Dist.dtw)

  /** Point sets that stress the cell arithmetic, each with its query points. */
  private def cases(seed: Int): Seq[(String, IndexedSeq[Point], IndexedSeq[Point])] = {
    val r = new Random(seed)
    def around(d: IndexedSeq[Point], spread: Double): IndexedSeq[Point] = {
      val xs = d.map(_.x); val ys = d.map(_.y)
      val (cx, cy) = ((xs.min + xs.max) / 2, (ys.min + ys.max) / 2)
      val near = IndexedSeq.fill(20)(Point(cx + (r.nextDouble() - 0.5) * 3 * spread,
                                           cy + (r.nextDouble() - 0.5) * 3 * spread))
      val far = Seq(1e3, 1e7, 1e12, 1e300).flatMap(f => Seq(Point(cx + f * spread, cy), Point(cx, cy - f * spread),
                                                          Point(cx - f, cy + f)))
      near ++ d.take(3) ++ far
    }
    val n = 1 + r.nextInt(400)
    val scale = Seq(1e-3, 1.0, 1e3)(r.nextInt(3))
    val random = IndexedSeq.fill(n)(Point(r.nextDouble() * scale, r.nextDouble() * scale))
    // 100 points in a 10 x 10 box give unit cells: integer points sit on cell boundaries.
    val lattice = (IndexedSeq(Point(0, 0), Point(10, 10)) ++
      IndexedSeq.fill(98)(Point(r.nextInt(11).toDouble, r.nextInt(11).toDouble)))
    val latticeQ = IndexedSeq.fill(40)(Point(r.nextInt(25) / 2.0 - 1, r.nextInt(25) / 2.0 - 1))
    val walk = TestGen.randPoints(r, n).scanLeft(Point(0, 0))((p, s) => Point(p.x + s.x - 0.5, p.y + s.y - 0.5))
    val offset = walk.map(p => Point(p.x + 1e6, p.y - 1e6))
    Seq(
      ("n = 1", IndexedSeq(Point(r.nextDouble(), r.nextDouble())), null),
      ("identical points", IndexedSeq.fill(n)(Point(0.3, 0.7)), null),
      ("horizontal line", IndexedSeq.tabulate(n)(_ => Point(r.nextDouble() * scale, 2.5)), null),
      ("vertical line", IndexedSeq.tabulate(n)(_ => Point(-1.5, r.nextDouble() * scale)), null),
      ("random", random, null),
      ("cell boundaries", lattice, latticeQ ++ lattice.take(10)),
      ("random walk", walk, null),
      ("offset by 1e6 km", offset, null),
    ).map { case (name, d, q) => (name, d, if (q == null) around(d, math.max(scale, 1e-3)) else q) }
  }

  test("PointGrid.nearest equals the scan bit for bit on adversarial point sets") {
    var checked = 0
    for (seed <- 0 until 60; (name, d, qs) <- cases(seed)) {
      val g = PointGrid(d).get
      for (q <- qs) {
        val want = scanNearest(q, d)
        assert(bits(g.nearest(q.x, q.y)) == bits(want), s"$name seed=$seed q=$q want=$want")
        checked += 1
      }
    }
    assert(checked > 10000)
  }

  test("PointGrid.within decides as the scan, also at eps equal to a distance") {
    for (seed <- 0 until 40; (name, d, qs) <- cases(seed); q <- qs) {
      val g = PointGrid(d).get
      val m = scanNearest(q, d)
      for (eps <- Seq(0.0, m, Math.nextDown(m), Math.nextUp(m), m * 0.5, m * 2, 1e-3, 0.4, -1.0, Double.NaN))
        assert(g.within(q.x, q.y, eps) == (m <= eps), s"$name seed=$seed q=$q eps=$eps nearest=$m")
    }
  }

  private val shipped: Seq[DistFn[Point]] = Seq(Dist.dtw, Dist.fd, Dist.edr(0.3), Dist.erp(Point(0.5, 0.5)))

  for (fn <- shipped; rate <- Seq(0.05, 1.0))
    test(s"KPF estimate through the grid equals the scan estimate bitwise [${fn.name} r=$rate]") {
      val r = new Random(fn.name.hashCode * 7 + (rate * 100).toInt)
      for (_ <- 0 until 150) {
        val scale = Seq(0.1, 1.0, 30.0)(r.nextInt(3))
        val q = TestGen.randPoints(r, 1 + r.nextInt(200), scale)
        val d = TestGen.randPoints(r, 1 + r.nextInt(400), scale)
        assert(bits(KPF.estimate(q, d, fn, rate)) == bits(ScanOracles.estimate(q, d, fn, rate)))
      }
    }

  test("non-finite coordinates in the data or a key point give the scan estimate bit for bit") {
    val r = new Random(3)
    val bad = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    for (fn <- shipped; v <- bad; where <- Seq("x", "y"); inData <- Seq(true, false)) {
      val q = TestGen.randPoints(r, 40).toArray
      val d = TestGen.randPoints(r, 60).toArray
      val (arr, k) = if (inData) (d, r.nextInt(d.length)) else (q, KPF.keyPointIdx(q.length, 1.0)(r.nextInt(40)))
      arr(k) = if (where == "x") arr(k).copy(x = v) else arr(k).copy(y = v)
      val (qs, ds) = (q.toIndexedSeq, d.toIndexedSeq)
      val want = ScanOracles.estimate(qs, ds, fn, 1.0)
      assert(bits(KPF.estimate(qs, ds, fn, 1.0)) == bits(want), s"${fn.name} $v in ${if (inData) "d" else "q"}.$where")
    }
    // A NaN query point matches nothing: its nearest distance is +inf, as the scan's.
    val d = TestGen.randPoints(r, 30)
    assert(PointGrid(d).get.nearest(Double.NaN, 0.5) == Double.PositiveInfinity)
    assert(KPF.estimate(IndexedSeq.fill(8)(Point(Double.NaN, 0.5)), d, Dist.dtw, 1.0) == Double.PositiveInfinity)
    assert(PointGrid(d.updated(3, Point(Double.NaN, 0))).isEmpty)
    assert(PointGrid(d.updated(3, Point(0, Double.NegativeInfinity))).isEmpty)
    assert(PointGrid(IndexedSeq(Point(-1e308, 0), Point(1e308, 0))).isEmpty)
    assert(PointGrid(IndexedSeq.empty[Point]).isEmpty)
  }

  test("the four shipped point functions give the scan estimate, also deserialized; a custom WED gets 0") {
    val r = new Random(1)
    val d = TestGen.randPoints(r, 50)
    // Far from d, so that every function's scan estimate is positive.
    val q = TestGen.randPoints(r, 20).map(p => Point(p.x + 3, p.y))
    // Spark tasks see a deserialized copy of the function, so check that too.
    def roundTrip[A](a: A): A = {
      val bytes = new java.io.ByteArrayOutputStream()
      val out = new java.io.ObjectOutputStream(bytes); out.writeObject(a); out.close()
      new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[A]
    }
    for (spec <- Seq(Workloads.porto, Workloads.xian, Workloads.beijing, TestGen.tiny);
         fn <- Workloads.distFns(spec); f <- Seq(fn, roundTrip(fn)); rate <- Seq(0.05, 1.0)) {
      val want = ScanOracles.estimate(q, d, f, rate)
      assert(want > 0 && bits(KPF.estimate(q, d, f, rate)) == bits(want), s"${spec.name} ${fn.name} r=$rate")
    }
    val custom = TestGen.pointFns.last
    assert(ScanOracles.estimate(q, d, custom, 1.0) > 0 && KPF.estimate(q, d, custom, 1.0) == 0.0)
    // KPF is typed on Point: network and char functions cannot reach it.
    val net = RoadNetwork.grid(4, 4, 1.0, seed = 1)
    val walk = IndexedSeq(0, 1, 2, 6)
    val netFns: Seq[DistFn[Int]] = Seq(NetDist.netErp(net, 5), NetDist.netEdr(net, 1.0), NetDist.surs(net))
    val chars = "abc".toIndexedSeq
    val charFn: DistFn[Char] = TestGen.wedUnit[Char]
    assert(netFns.length == 3 && walk.nonEmpty && chars.nonEmpty && charFn.name == "WED")
    assertTypeError("KPF.estimate(walk, walk, netFns.head, 1.0)")
    assertTypeError("KPF.estimate(chars, chars, charFn, 1.0)")
  }
}
