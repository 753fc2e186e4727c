package repro.pruning

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.eval.Workloads

import scala.collection.immutable.ArraySeq
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

  // --- KPF early stop at the incumbent ---
  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  for (fn <- TestGen.pointFns; rate <- Seq(0.05, 1.0))
    test(s"KPF estimate stopped at a threshold decides as the full estimate [${fn.name} r=$rate]") {
      val r = new Random(fn.name.hashCode + (rate * 100).toInt)
      for (_ <- 0 until 40) {
        val q = TestGen.randPoints(r, 1 + r.nextInt(80))
        val d = TestGen.randPoints(r, 1 + r.nextInt(30))
        val full = KPF.estimate(q, d, fn, rate)
        val around = Seq(0.0, full, Math.nextDown(full), Math.nextUp(full),
          Double.PositiveInfinity) ++ Seq.fill(8)(full * (0.5 + r.nextDouble()))
        for (t <- around) {
          val stopped = KPF.estimate(q, d, fn, rate, stopAt = t)
          assert((stopped >= t) == (full >= t), s"stopAt=$t full=$full stopped=$stopped")
          if (full < t) assert(bits(stopped) == bits(full), s"stopAt=$t full=$full stopped=$stopped")
        }
      }
    }

  /** `Pruner.gate` as it was before the early stop: the full KPF estimate. */
  private def fullEstimateGate(q: Array[Point], fn: DistFn[Point], params: Pruner.Params,
                               stats: Pruner.Stats): TopK.Gate[Point] = {
    val qCells = GBP.queryCells(q, params.eps)
    (d, kth) => {
      stats.examined += 1
      if (params.useGBP && !GBP.passes(qCells, d, params.eps, params.mu)) {
        stats.gbpPruned += 1; false
      } else if (params.useKPF && kth < Double.PositiveInfinity &&
                 KPF.estimate(q.toIndexedSeq, d, fn, params.r) >= kth) {
        stats.kpfPruned += 1; false
      } else {
        stats.searched += 1; true
      }
    }
  }

  for (fn <- TestGen.pointFns.take(4); rate <- Seq(0.05, 1.0))
    test(s"gate with early-stopped KPF keeps hits and stats [${fn.name} r=$rate]") {
      var kpfPruned = 0
      for (seed <- 0 until 6; k <- Seq(1, 3)) {
        val r = new Random(seed + 300)
        val db = Array.tabulate(30)(i => (i.toLong, TestGen.randPoints(r, 5 + r.nextInt(30)).toArray))
        val q = TestGen.randPoints(r, 20 + r.nextInt(40)).toArray
        val params = Pruner.Params(eps = 0.2, mu = 0.1, r = rate, useGBP = seed % 2 == 0)
        val search = (a: IndexedSeq[Point], b: IndexedSeq[Point]) => CMA.search(a, b, fn)
        val wrapped = db.map { case (id, d) => (id, d.toIndexedSeq) }
        val (gotStats, wantStats) = (Pruner.Stats(), Pruner.Stats())
        val got =
          if (k == 1) Pruner.search(q, db, fn, params, (a, b) => CMA.search(a, b, fn), gotStats).toArray
          else TopK.search(q.toIndexedSeq, wrapped, k, search, Pruner.gate(q, fn, params, gotStats))
        val want = TopK.search(q.toIndexedSeq, wrapped, k, search, fullEstimateGate(q, fn, params, wantStats))
        assert(got.toSeq == want.toSeq, s"seed=$seed k=$k")
        assert(gotStats == wantStats, s"seed=$seed k=$k")
        kpfPruned += wantStats.kpfPruned
      }
      assert(kpfPruned > 0, "KPF never pruned")
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

  test("GBP close count equals the HashSet-of-dilated-cells count") {
    val r = new Random(12)
    for (_ <- 0 until 400) {
      val eps = Seq(0.05, 0.3, 2.0)(r.nextInt(3))
      val scale = Seq(0.5, 5.0, 1e10)(r.nextInt(3)) // 1e10 / 0.05 overflows the 32-bit cell halves
      val shift = if (r.nextBoolean()) 0.0 else -scale / 2
      def pts(n: Int) = TestGen.randPoints(r, n, scale).map(p => Point(p.x + shift, p.y + shift)).toArray
      val d = pts(1 + r.nextInt(120))
      // Half the time the query is a perturbed part of d, so counts are neither 0 nor m.
      val q = if (r.nextBoolean()) pts(1 + r.nextInt(30))
              else d.take(1 + r.nextInt(d.length)).map(p => Point(p.x + r.nextGaussian() * eps, p.y + r.nextGaussian() * eps))
      val qc = GBP.queryCells(q, eps)
      assert(GBP.closeCount(qc, d, eps) == ScanOracles.closeCount(qc, d, eps), s"eps=$eps scale=$scale")
    }
  }

  // --- Grid-indexed KPF decides as the scan on Beijing-sized inputs ---
  for (fn <- Workloads.distFns(Workloads.beijing))
    test(s"grid KPF keeps the scan gate's hits and stats on Beijing trajectories [${fn.name}]") {
      val spec = Workloads.beijing
      val db = Workloads.dataLocal(spec).take(10).map(t => (t.id, t.points))
      val wrapped = db.map { case (id, d) => (id, d.toIndexedSeq) }
      val search = (a: IndexedSeq[Point], b: IndexedSeq[Point]) => CMA.search(a, b, fn)
      val searchArrays = (a: Array[Point], b: Array[Point]) =>
        CMA.search(ArraySeq.unsafeWrapArray(a), ArraySeq.unsafeWrapArray(b), fn)
      var kpfPruned = 0
      for (q <- Workloads.queries(spec);
           params <- Seq(Pruner.Params(eps = spec.gen.stepKm * 8, r = 1.0, useGBP = false),
                         Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.1, r = 0.05));
           k <- Seq(1, 3)) {
        assert(q.length <= 200 && db.forall(_._2.length <= 3000))
        val (gotStats, wantStats) = (Pruner.Stats(), Pruner.Stats())
        val got =
          if (k == 1) Pruner.search(q, db, fn, params, searchArrays, gotStats).toArray
          else TopK.search(q.toIndexedSeq, wrapped, k, search, Pruner.gate(q, fn, params, gotStats))
        val want = TopK.search(q.toIndexedSeq, wrapped, k, search, ScanOracles.gate(q, fn, params, wantStats))
        assert(got.toSeq == want.toSeq, s"k=$k params=$params")
        assert(gotStats == wantStats, s"k=$k params=$params")
        kpfPruned += wantStats.kpfPruned
      }
      assert(kpfPruned > 0, "KPF never pruned")
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
