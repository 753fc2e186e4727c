package repro.pruning

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

import scala.util.Random

/** `KPF.boxBound`, the bounding-box form of Theorem B.1 that orders and
  * cuts the Spark top-K: it never exceeds the r = 1 estimate, which never
  * exceeds the optimum, with plain `<=` and no tolerance.
  */
class BoxBoundSpec extends AnyFunSuite {

  private val fns: Seq[DistFn[Point]] = Seq(Dist.dtw, Dist.fd, Dist.edr(0.3), Dist.erp(Point(0.5, 0.5)))

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  private def boxBound(q: IndexedSeq[Point], d: IndexedSeq[Point], fn: DistFn[Point]): Double =
    KPF.boxBound(q, fn, KPF.Box(d.map(_.x).min, d.map(_.x).max, d.map(_.y).min, d.map(_.y).max))

  /** `boxBound <= estimate(r = 1) <= CMA`. */
  private def check(q: IndexedSeq[Point], d: IndexedSeq[Point], fn: DistFn[Point]): Unit = {
    val b = boxBound(q, d, fn)
    val e = KPF.estimate(q, d, fn, 1.0)
    val opt = CMA.search(q, d, fn).dist
    assert(b <= e && e <= opt, s"${fn.name} box=$b estimate=$e opt=$opt")
  }

  for (fn <- fns)
    test(s"box bound <= r = 1 estimate <= optimum on random sets [${fn.name}]") {
      val r = new Random(fn.name.hashCode)
      for (seed <- 0 until 150) {
        val (q, d) = TestGen.randPair(seed * 31 + 5, mMax = 30, nMax = 40)
        check(q, d, fn)
        val scale = Seq(0.1, 1.0, 30.0)(seed % 3)
        check(TestGen.randPoints(r, 1 + r.nextInt(60), scale), TestGen.randPoints(r, 1 + r.nextInt(60), scale), fn)
      }
    }

  for (fn <- fns)
    test(s"box bound on a single point, a zero-width box and query points on its edges [${fn.name}]") {
      val r = new Random(fn.name.hashCode + 1)
      for (_ <- 0 until 100) {
        val q = TestGen.randPoints(r, 1 + r.nextInt(40))
        val one = TestGen.randPoints(r, 1)
        check(q, one, fn)
        check(q :+ one.head, one, fn)
        // A vertical segment, a horizontal one, and one point repeated.
        val x = r.nextDouble()
        check(q, TestGen.randPoints(r, 1 + r.nextInt(20)).map(_.copy(x = x)), fn)
        check(q, TestGen.randPoints(r, 1 + r.nextInt(20)).map(_.copy(y = x)), fn)
        check(q, IndexedSeq.fill(1 + r.nextInt(5))(one.head), fn)
        // Query points on the box's edges and corners.
        val d = TestGen.randPoints(r, 2 + r.nextInt(20))
        val (minX, maxX) = (d.map(_.x).min, d.map(_.x).max)
        val (minY, maxY) = (d.map(_.y).min, d.map(_.y).max)
        val onEdges = q.map { p =>
          r.nextInt(4) match {
            case 0 => p.copy(x = minX)
            case 1 => p.copy(x = maxX)
            case 2 => p.copy(y = minY)
            case _ => Point(if (r.nextBoolean()) minX else maxX, if (r.nextBoolean()) minY else maxY)
          }
        }
        check(onEdges, d, fn)
      }
    }

  test("EDR counts a query point whose box distance equals eps as a possible match") {
    // Box [0, 1] × [0, 1]; (1.5, 0.5) is 0.5 from it and from the data point (1, 0.5).
    val d = IndexedSeq(Point(0, 0), Point(1, 0.5), Point(0, 1))
    val q = IndexedSeq(Point(1.5, 0.5), Point(3, 3))
    assert(boxBound(q, d, Dist.edr(0.5)) == 1.0)
    check(q, d, Dist.edr(0.5))
    assert(boxBound(q, d, Dist.edr(Math.nextDown(0.5))) == 2.0)
    check(q, d, Dist.edr(Math.nextDown(0.5)))
    assert(boxBound(q, d, Dist.edr(5.0)) == 0.0)
  }

  test("ERP takes a query point's deletion cost where it is below its box distance") {
    val g = Point(0, 0)
    val d = IndexedSeq(Point(10, 10), Point(11, 10.5), Point(10.5, 11))
    val q = IndexedSeq(Point(0.3, 0.4), Point(10.5, 10.5), Point(12, 10))
    val fn = Dist.erp(g)
    // del(q0) = 0.5 < box distance; q1 is inside the box; q2 is 1 from it.
    assert(boxBound(q, d, fn) == 0.5 + 0.0 + 1.0)
    check(q, d, fn)
    val r = new Random(7)
    for (_ <- 0 until 100) {
      val far = TestGen.randPoints(r, 1 + r.nextInt(20)).map(p => Point(p.x + 5, p.y + 5))
      val near = TestGen.randPoints(r, 1 + r.nextInt(20), scale = 0.5)
      check(near, far, fn)
      assert(bits(boxBound(near, far, fn)) == bits(near.map(fn.costs.del).foldLeft(0.0)(_ + _)))
    }
  }

  test("a function without a box bound gets 0") {
    val r = new Random(8)
    val (q, d) = (TestGen.randPoints(r, 10, 5.0), TestGen.randPoints(r, 10))
    for (fn <- TestGen.pointFns.filterNot(fns.contains) :+ DtwFn[Point]("DTW2", (a, b) => 2 * a.distTo(b)))
      assert(boxBound(q, d, fn) == 0.0, fn.name)
  }
}
