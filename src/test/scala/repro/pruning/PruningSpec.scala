package repro.pruning

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

import scala.util.Random

/** GBP / KPF: soundness of the lower bounds (Theorem B.1), grid semantics,
  * and exactness of the full Algorithm-3 pipeline under safe parameters.
  */
class PruningSpec extends AnyFunSuite {

  private def smallDb(seed: Int, n: Int = 10): Array[(Long, Array[Point])] = {
    val r = new Random(seed)
    Array.tabulate(n)(i => (i.toLong, TestGen.randPoints(r, 5 + r.nextInt(15)).toArray))
  }

  // --- Theorem B.1: the unsampled KPF bound never exceeds the optimum ---
  for (fn <- TestGen.pointFns; seed <- 0 until 10)
    test(s"KPF lower bound <= exact optimum [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 61 + 17)
      val lb = KPF.lowerBound(q, d, fn)
      val opt = CMA.search(q, d, fn).dist
      assert(lb <= opt + 1e-9, s"lb=$lb opt=$opt")
    }

  test("KPF pointMinCost is min over sub/del") {
    val d = IndexedSeq(Point(0, 0), Point(1, 0), Point(2, 0))
    val erp = Dist.erp(Point(0, 0))
    // query point near (1,0): sub min = 0.1, del = dist to gap (0,0) = 1.1
    TestGen.assertSameDist(KPF.pointMinCost(Point(1.1, 0), d, erp), 0.1, 1e-9)
    // query point far away: deletion (to gap) may win
    val far = Point(0.2, 0)
    TestGen.assertSameDist(KPF.pointMinCost(far, d, erp), 0.2, 1e-9)
  }

  test("KPF key point sampling covers the query uniformly") {
    val idx = KPF.keyPointIdx(100, 0.05)
    assert(idx.length == 5)
    assert(idx.forall(i => i >= 0 && i < 100))
    assert(idx.distinct.length == idx.length)
    assert(KPF.keyPointIdx(3, 0.05).length == 1) // at least one
  }

  test("KPF estimate with r=1 equals the exact bound (sum-type)") {
    val (q, d) = TestGen.randPair(77)
    val fn = Dist.erp(Point(0.5, 0.5))
    TestGen.assertSameDist(KPF.estimate(q, d, fn, 1.0), KPF.lowerBound(q, d, fn))
  }

  // --- GBP grid semantics ---
  test("GBP cell packing is injective on distinct cells") {
    val eps = 0.25
    val cells = for (x <- -5 to 5; y <- -5 to 5)
      yield GBP.cell(Point(x * eps + eps / 2, y * eps + eps / 2), eps)
    assert(cells.distinct.length == cells.length)
  }

  test("GBP dilate returns the 3x3 block") {
    val c = GBP.cell(Point(1.0, 1.0), 0.5)
    val b = GBP.dilate(c)
    assert(b.length == 9 && b.distinct.length == 9 && b.contains(c))
  }

  test("GBP close-count of a trajectory with itself is m") {
    val t = TestGen.randPoints(new Random(4), 12).toArray
    val qc = GBP.queryCells(t, 0.3)
    assert(GBP.closeCount(qc, t, 0.3) == t.length)
    assert(GBP.passes(qc, t, 0.3, 1.0))
  }

  test("GBP rejects a far-away trajectory") {
    val t = TestGen.randPoints(new Random(5), 10).toArray
    val far = t.map(p => Point(p.x + 100, p.y + 100))
    assert(GBP.closeCount(GBP.queryCells(t, 0.3), far, 0.3) == 0)
  }

  test("GBP close is monotone in eps (coarser grid keeps at least as many)") {
    val r = new Random(6)
    val q = TestGen.randPoints(r, 10).toArray
    val d = TestGen.randPoints(r, 15).toArray
    val small = GBP.closeCount(GBP.queryCells(q, 0.1), d, 0.1)
    val large = GBP.closeCount(GBP.queryCells(q, 0.8), d, 0.8)
    assert(large >= small)
  }

  // --- Algorithm 3 pipeline exactness under safe parameters ---
  for (fn <- Seq[DistFn[Point]](Dist.dtw, Dist.erp(Point(0.5, 0.5))); seed <- 0 until 6)
    test(s"pipeline with KPF-only (safe r=1) is exact [${fn.name} seed=$seed]") {
      val db = smallDb(seed + 40)
      val q = TestGen.randPoints(new Random(seed + 99), 6).toArray
      val params = Pruner.Params(eps = 1.0, mu = 0.4, r = 1.0, useGBP = false, useKPF = true)
      val got = Pruner.search(q, db, fn, params,
        (a, b) => CMA.search(a, b, fn)).get
      val want = db.map { case (_, d) => CMA.search(q, d, fn).dist }.sorted
      TestGen.assertSameDist(got.dist, want.head)
      // k = 3: KPF prunes against the third-best distance.
      val top3 = TopK.search(q.toIndexedSeq, db.map { case (id, d) => (id, d.toIndexedSeq) }, 3,
        (a: IndexedSeq[Point], b: IndexedSeq[Point]) => CMA.search(a, b, fn), Pruner.gate(q, fn, params))
      assert(top3.length == 3)
      for ((h, w) <- top3.zip(want)) TestGen.assertSameDist(h.dist, w)
    }

  test("pipeline prunes most of a database of far trajectories") {
    val r = new Random(9)
    val near = (0L, TestGen.randPoints(r, 10).toArray)
    val fars = Array.tabulate(20)(i =>
      ((i + 1).toLong, TestGen.randPoints(r, 10).map(p => Point(p.x + 50, p.y + 50)).toArray))
    val q = near._2.take(6)
    val stats = Pruner.Stats()
    val params = Pruner.Params(eps = 0.5, mu = 0.3)
    val got = Pruner.search(q, near +: fars, Dist.dtw, params,
      (a, b) => CMA.search(a, b, Dist.dtw), stats).get
    assert(got.trajId == 0L)
    assert(stats.gbpPruned >= 18, s"stats=$stats")
  }
}
