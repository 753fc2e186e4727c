package repro.pruning

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

import scala.util.Random

/** `KPF.segBound`, CMA's recurrence over segment boxes: never above the
  * optimum CMA computes, with plain `<=` and no tolerance, at any threshold;
  * stopped early, never above the full coarse DP.
  */
class SegBoundSpec extends AnyFunSuite {

  private val fns: Seq[DistFn[Point]] = Seq(Dist.dtw, Dist.fd, Dist.edr(0.3), Dist.erp(Point(0.5, 0.5)))

  /** Data lengths around the 16-point segment: one short segment, one full
    * one, one point over, whole multiples, and longer ones.
    */
  private val lengths = Seq(1, 2, 7, 15, 16, 17, 31, 32, 33, 48, 64, 100)

  /** `segBound` at `+inf`, and at the optimum, just above and just below
    * it, at the full coarse bound and just above it: each `<=` the optimum,
    * and at a threshold `t` exactly `min(full, t)`, as the dead cells it
    * skips could not have lowered it. Returns the full coarse bound.
    */
  private def check(q: IndexedSeq[Point], d: IndexedSeq[Point], fn: DistFn[Point]): Double = {
    val opt = CMA.search(q, d, fn).dist
    val full = KPF.segBound(q, d, fn, Double.PositiveInfinity)
    assert(full <= opt, s"${fn.name} seg=$full opt=$opt m=${q.length} n=${d.length}")
    for (t <- Seq(opt, Math.nextUp(opt), Math.nextDown(opt), opt / 2, full, Math.nextUp(full), 0.0)) {
      val b = KPF.segBound(q, d, fn, t)
      assert(b <= opt, s"${fn.name} threshold=$t seg=$b opt=$opt")
      assert(b == math.min(full, t), s"${fn.name} threshold=$t seg=$b full=$full")
    }
    full
  }

  /** `d`'s points at `n` steps of a random walk, so segments are local. */
  private def walk(r: Random, n: Int, step: Double): IndexedSeq[Point] =
    Iterator.iterate(Point(r.nextDouble(), r.nextDouble()))(p =>
      Point(p.x + r.nextGaussian() * step, p.y + r.nextGaussian() * step)).take(n).toIndexedSeq

  // A query that runs along `d` backwards is close to every point, so KPF's
  // per-point terms stay small, while the DP's paths must run forwards: the
  // segment bound is sharper there, which is what lets it cut.
  for (fn <- fns)
    test(s"segment bound <= optimum around 16-point segments, at and near the optimum [${fn.name}]") {
      val r = new Random(fn.name.hashCode)
      var sharper = 0 // pairs where it beats the r = 1 estimate
      for (n <- lengths; _ <- 0 until 12) {
        val d = walk(r, n, 0.1)
        val m = 1 + r.nextInt(60)
        val s = r.nextInt(n)
        val piece = (0 until m).map(k => d(math.min(n - 1, s + k))).map(p => Point(p.x + r.nextGaussian() * 0.02, p.y))
        val q = r.nextInt(3) match {
          case 0 => piece
          case 1 => piece.reverse
          case _ => walk(r, m, 0.1)
        }
        if (check(q, d, fn) > KPF.estimate(q, d, fn, 1.0)) sharper += 1
        check(TestGen.randPoints(r, m), TestGen.randPoints(r, n), fn)
      }
      assert(sharper > 0, "never sharper than the r = 1 estimate")
    }

  for (fn <- fns)
    test(s"segment bound with query points on segment-box edges and corners [${fn.name}]") {
      val r = new Random(fn.name.hashCode + 1)
      for (n <- lengths; _ <- 0 until 8) {
        val d = walk(r, n, 0.1)
        val segs = d.grouped(16).toIndexedSeq
        val q = IndexedSeq.fill(1 + r.nextInt(25)) {
          val s = segs(r.nextInt(segs.length))
          val (xs, ys) = (s.map(_.x), s.map(_.y))
          val p = s(r.nextInt(s.length))
          r.nextInt(4) match {
            case 0 => p.copy(x = xs.min)
            case 1 => p.copy(x = xs.max, y = ys.min)
            case 2 => Point(xs.min, ys.max)
            case _ => p.copy(y = ys.max)
          }
        }
        check(q, d, fn)
        check(q.take(1), d, fn)
      }
    }

  test("segment bound at EDR eps equal to a box distance and ERP del below it") {
    val r = new Random(7)
    for (n <- lengths; _ <- 0 until 8) {
      val d = walk(r, n, 0.1)
      val q = walk(r, 1 + r.nextInt(20), 0.1).map(p => Point(p.x + 0.3, p.y))
      val box = KPF.Box.of(d, 0, math.min(16, n))
      check(q, d, Dist.edr(box.nearest(q.head.x, q.head.y)))
      check(q, d, Dist.erp(q.head))
    }
  }

  test("segment bound is 0 for a function without a term and rejects non-finite data") {
    val r = new Random(8)
    val (q, d) = (TestGen.randPoints(r, 5), TestGen.randPoints(r, 40))
    assert(KPF.segBound(q, d.map(p => Point(p.x + 5, p.y)), TestGen.pointFns.last, Double.PositiveInfinity) == 0.0)
    for (fn <- fns; v <- Seq(Double.NaN, Double.PositiveInfinity)) {
      val e = intercept[IllegalArgumentException](KPF.segBound(q, d.updated(20, Point(v, 0.5)), fn, 1.0))
      assert(e.getMessage.contains("must be finite"))
    }
  }

  // The compares equal the two `math.max`s they replace, NaN included.
  test("Box.nearest equals the max form bit for bit") {
    val r = new Random(9)
    val vals = Seq(0.0, -0.0, 1.0, -1.0, 0.5, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    def pick = if (r.nextInt(3) == 0) vals(r.nextInt(vals.length)) else r.nextDouble() * 2 - 0.5
    for (_ <- 0 until 20000) {
      val (a, b, c, e) = (pick, pick, pick, pick)
      val box = KPF.Box(math.min(a, b), math.max(a, b), math.min(c, e), math.max(c, e))
      val (qx, qy) = (pick, pick)
      val dx = math.max(0.0, math.max(qx - box.maxX, box.minX - qx))
      val dy = math.max(0.0, math.max(qy - box.maxY, box.minY - qy))
      val want = math.sqrt(dx * dx + dy * dy)
      val got = box.nearest(qx, qy)
      assert(java.lang.Double.compare(got, want) == 0, s"$box ($qx, $qy): $got vs $want")
    }
  }
}
