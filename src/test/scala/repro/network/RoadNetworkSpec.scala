package repro.network

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

import scala.collection.immutable.ArraySeq

/** Road-network substrate: Dijkstra vs Floyd–Warshall, metric properties,
  * and CMA exactness under the Appendix-D functions (NetERP, NetEDR, SURS).
  */
class RoadNetworkSpec extends AnyFunSuite {

  private lazy val net = RoadNetwork.grid(5, 5, 1.0, seed = 7)

  private def floydWarshall(n: RoadNetwork): Array[Array[Double]] = {
    val v = n.nNodes
    val D = Array.fill(v, v)(Double.PositiveInfinity)
    for (i <- 0 until v) D(i)(i) = 0.0
    for (u <- 0 until v; (w, wt) <- n.adj(u)) D(u)(w) = math.min(D(u)(w), wt)
    for (k <- 0 until v; i <- 0 until v; j <- 0 until v)
      if (D(i)(k) + D(k)(j) < D(i)(j)) D(i)(j) = D(i)(k) + D(k)(j)
    D
  }

  test("Dijkstra == Floyd-Warshall on the grid graph") {
    val fw = floydWarshall(net)
    for (src <- Seq(0, 7, 12, 24)) {
      val dj = net.dijkstra(src)
      for (v <- 0 until net.nNodes)
        TestGen.assertSameDist(dj(v), fw(src)(v), 1e-9)
    }
  }

  test("network distance is symmetric (bidirectional edges)") {
    for (a <- Seq(0, 3, 11); b <- Seq(5, 17, 24))
      TestGen.assertSameDist(net.dist(a, b), net.dist(b, a), 1e-9)
  }

  test("network distance satisfies the triangle inequality") {
    for (a <- Seq(0, 8); b <- Seq(12, 20); c <- Seq(4, 24))
      assert(net.dist(a, c) <= net.dist(a, b) + net.dist(b, c) + 1e-9)
  }

  test("network distance to self is zero, to neighbors positive") {
    assert(net.dist(6, 6) == 0.0)
    for ((v, w) <- net.adj(6)) {
      assert(net.dist(6, v) > 0.0)
      assert(net.dist(6, v) <= w + 1e-9) // direct edge is an upper bound
    }
  }

  test("nearestNode snaps points to a grid node") {
    val v = net.nearestNode(Point(2.0, 3.0))
    assert(v >= 0 && v < net.nNodes)
    val d = Point(net.xs(v), net.ys(v)).distTo(Point(2.0, 3.0))
    for (u <- 0 until net.nNodes)
      assert(Point(net.xs(u), net.ys(u)).distTo(Point(2.0, 3.0)) >= d - 1e-12)
  }

  test("walk produces adjacent node sequences deterministically") {
    val w1 = net.walk(0, 12, seed = 3)
    val w2 = net.walk(0, 12, seed = 3)
    assert(w1.toSeq == w2.toSeq)
    for (Array(a, b) <- w1.sliding(2))
      assert(net.adj(a).exists(_._1 == b), s"$a -> $b not an edge")
  }

  test("walkEdges maps a walk to consecutive edge ids") {
    val w = net.walk(5, 10, seed = 4)
    val es = net.walkEdges(w)
    assert(es.length == w.length - 1)
    for ((e, k) <- es.zipWithIndex) {
      val (u, v, _) = net.edges(e)
      assert(u == w(k) && v == w(k + 1))
    }
    // Same ids as a (u, v) -> last index map over `edges`, on random walks
    // and on node sequences with non-adjacent steps (which are skipped).
    val idx = net.edges.zipWithIndex.map { case ((u, v, _), i) => (u, v) -> i }.toMap
    def viaMap(ns: Array[Int]): Seq[Int] =
      ns.toSeq.sliding(2).collect { case Seq(u, v) if idx.contains((u, v)) => idx((u, v)) }.toSeq
    val r = new scala.util.Random(11)
    for (seed <- 0 until 40) {
      val walk = net.walk(r.nextInt(net.nNodes), 1 + r.nextInt(30), seed)
      assert(net.walkEdges(walk).toSeq == viaMap(walk))
      val jumpy = Array.fill(1 + r.nextInt(12))(r.nextInt(net.nNodes))
      assert(net.walkEdges(jumpy).toSeq == viaMap(jumpy))
    }
    assert(net.walkEdges(Array.empty[Int]).isEmpty)
  }

  // --- the shortest-path cache under concurrent use ---
  private def inParallel[A](threads: Int)(body: Int => A): Seq[A] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    try {
      val start = new java.util.concurrent.CountDownLatch(1)
      val fs = (0 until threads).map { t =>
        pool.submit(new java.util.concurrent.Callable[A] {
          def call(): A = { start.await(); body(t) }
        })
      }
      start.countDown()
      fs.map(_.get(60, java.util.concurrent.TimeUnit.SECONDS))
    } finally pool.shutdownNow()
  }

  test("dist from 8 threads on a cold cache equals dijkstra") {
    val fresh = RoadNetwork.grid(9, 9, 1.0, seed = 13)
    val pairs = inParallel(8) { t =>
      val r = new scala.util.Random(t)
      Array.fill(3000) {
        val a = r.nextInt(fresh.nNodes); val b = r.nextInt(fresh.nNodes)
        (a, b, fresh.dist(a, b))
      }
    }
    val rows = Array.tabulate(fresh.nNodes)(fresh.dijkstra)
    for (ps <- pairs; (a, b, got) <- ps) assert(got == rows(a)(b), s"dist($a, $b)")
  }

  // Each function on a cold row cache of a >= 144-node grid, so node and
  // edge ids lie outside the Integer cache and the row kernel's concurrent
  // `row` fetches race; every thread starts its queries at a different one.
  for ((name, mk) <- Seq[(String, RoadNetwork => WedFn[Int])](
         "NetERP" -> (n => NetDist.netErp(n, center = n.nNodes / 2)),
         "NetEDR" -> (n => NetDist.netEdr(n, eps = 1.2)),
         "SURS"   -> (n => NetDist.surs(n))))
    test(s"$name top-K from 4 threads == single-threaded") {
      val edges = name == "SURS"
      def setup(n: RoadNetwork) = {
        val r = new scala.util.Random(5)
        def walk(len: Int, seed: Int): IndexedSeq[Int] = {
          val w = n.walk(r.nextInt(n.nNodes), len, seed)
          ArraySeq.unsafeWrapArray(if (edges) n.walkEdges(w) else w)
        }
        val data = (0 until 12).map(i => (i.toLong, walk(20 + r.nextInt(20), i)))
        val qs = (0 until 8).map(i => walk(4 + r.nextInt(6), 100 + i))
        (data, qs, mk(n))
      }
      val (data, qs, fn) = setup(RoadNetwork.grid(12, 12, 1.0, seed = 17))
      assert(data.exists(_._2.exists(_ > 127)))
      val got = inParallel(4) { t =>
        qs.indices.map(k => (k + 2 * t) % qs.length)
          .map(k => k -> TopK.cma(qs(k), data, 3, fn).toSeq).sortBy(_._1).map(_._2)
      }
      val (data1, qs1, fn1) = setup(RoadNetwork.grid(12, 12, 1.0, seed = 17))
      val want = qs1.map(q => TopK.cma(q, data1, 3, fn1).toSeq)
      for (g <- got) assert(g == want)
    }

  // --- the row kernel (`RowCosts`) against the fused per-cell kernel ---
  // 169 nodes and 624 edges: most ids are outside the Integer cache.
  private lazy val big = RoadNetwork.grid(13, 13, 1.0, seed = 23)

  /** Delegates to `c` without the row capability, so CMA takes the fused
    * kernel, and counts the cost calls it sees.
    */
  private final class Counting(c: WedCosts[Int]) extends WedCosts[Int] {
    var subs, dels, inss = 0L
    def sub(a: Int, b: Int): Double = { subs += 1; c.sub(a, b) }
    def del(a: Int): Double = { dels += 1; c.del(a) }
    def ins(b: Int): Double = { inss += 1; c.ins(b) }
  }

  private def ids(a: Array[Int]): IndexedSeq[Int] = ArraySeq.unsafeWrapArray(a)

  /** Row kernel == fused kernel, bit for bit, on primitive-array and
    * `Vector` inputs; the fused kernel sees m·n `sub`, m `del`, n `ins`.
    */
  private def assertKernelsAgree(q: IndexedSeq[Int], d: IndexedSeq[Int], fn: WedFn[Int]): SubtrajResult = {
    assert(fn.costs.isInstanceOf[RowCosts] && q.isInstanceOf[ArraySeq.ofInt] && d.isInstanceOf[ArraySeq.ofInt])
    val row = CMA.search(q, d, fn)
    val counting = new Counting(fn.costs)
    assert(CMA.search(q, d, WedFn(fn.name, counting)) == row, s"${fn.name} q=$q d=$d")
    assert(counting.subs == q.length.toLong * d.length && counting.dels == q.length && counting.inss == d.length)
    assert(CMA.search(q.toVector, d.toVector, fn) == row)
    assert(CMA.search(q, d.toVector, fn) == row)
    row
  }

  /** A random subsequence of `d` (each element kept with probability 0.6,
    * at least one): matching it needs insertions, so a gap term wins.
    */
  private def thinned(d: Array[Int], r: scala.util.Random): Array[Int] = {
    val kept = d.filter(_ => r.nextDouble() < 0.6)
    if (kept.nonEmpty) kept else d.take(1)
  }

  private def bigNodePair(seed: Int): (IndexedSeq[Int], IndexedSeq[Int]) = {
    val r = new scala.util.Random(seed)
    val d = big.walk(r.nextInt(big.nNodes), 1 + r.nextInt(40), seed)
    val q = r.nextInt(3) match {
      case 0 if d.length > 3 => d.slice(1 + r.nextInt(d.length - 2), d.length)
      case 1                 => thinned(d.slice(r.nextInt(d.length), d.length), r)
      case _                 => big.walk(r.nextInt(big.nNodes), 1 + r.nextInt(12), seed + 1)
    }
    (ids(q), ids(d))
  }

  private def bigEdgePair(seed: Int): (IndexedSeq[Int], IndexedSeq[Int]) = {
    val r = new scala.util.Random(seed)
    val d = big.walkEdges(big.walk(r.nextInt(big.nNodes), 2 + r.nextInt(40), seed))
    val q =
      if (r.nextBoolean()) thinned(d.slice(r.nextInt(d.length), d.length), r)
      else big.walkEdges(big.walk(r.nextInt(big.nNodes), 2 + r.nextInt(12), seed + 1))
    (ids(q), ids(d))
  }

  test("row kernel == fused kernel (==) under NetERP, NetEDR and SURS, ids beyond the Integer cache") {
    val farErp = NetDist.netErp(big, center = 150)
    val edr = NetDist.netEdr(big, eps = 1.2)
    val surs = NetDist.surs(big)
    var large = 0
    for (seed <- 0 until 80) {
      val (q, d) = bigNodePair(seed * 31 + 7)
      assertKernelsAgree(q, d, farErp)
      // A gap node on the data walk makes insertions cheap near it.
      assertKernelsAgree(q, d, NetDist.netErp(big, center = d(d.length / 2)))
      assertKernelsAgree(q, d, edr)
      val (qe, de) = bigEdgePair(seed * 37 + 5)
      assertKernelsAgree(qe, de, surs)
      if ((q ++ d ++ qe ++ de).exists(_ > 127)) large += 1
    }
    assert(large >= 70, s"only $large of 80 cases hold an id above 127")
  }

  /** `c` with its `subRow` calls (DP rows) counted; still a `RowCosts`. */
  private final class CountingRows(c: RowCosts) extends RowCosts {
    var rows = 0L
    def sub(a: Int, b: Int): Double = c.sub(a, b)
    def del(a: Int): Double = c.del(a)
    def ins(b: Int): Double = c.ins(b)
    def subRow(a: Int, ds: Array[Int], out: Array[Double]): Unit = { rows += 1; c.subRow(a, ds, out) }
  }

  test("searchBelow == search iff below the bound on the row kernel and the fused kernel (NetERP, NetEDR, SURS)") {
    val r = new scala.util.Random(29)
    var rows, full = 0L
    for (seed <- 0 until 60) {
      val (q, d) = bigNodePair(seed * 53 + 11)
      val (qe, de) = bigEdgePair(seed * 59 + 13)
      for ((fn, a, b) <- Seq((NetDist.netErp(big, center = 150), q, d), (NetDist.netErp(big, center = q.head), q, d),
                             (NetDist.netEdr(big, eps = 1.2), q, d), (NetDist.surs(big), qe, de))) {
        val opt = CMA.search(a, b, fn)
        val counting = fn.costs match {
          case c: RowCosts => new CountingRows(c)
          case c           => fail(s"${fn.name} costs $c are not RowCosts")
        }
        val fused = WedFn(fn.name, new Counting(fn.costs))
        for (bound <- Seq(Math.nextDown(opt.dist), opt.dist, Math.nextUp(opt.dist)) ++
                      Seq.fill(4)(r.nextDouble() * 2 * opt.dist)) {
          val want = if (opt.dist < bound) Some(opt) else None
          counting.rows = 0
          assert(CMA.searchBelow(a, b, WedFn(fn.name, counting), bound) == want, s"${fn.name} bound $bound")
          assert(CMA.searchBelow(a, b, fused, bound) == want)
          assert(CMA.searchBelow(a.toVector, b.toVector, fn, bound) == want)
          rows += counting.rows; full += a.length
        }
      }
    }
    assert(rows < full, "no search stopped early")
  }

  test("searchBelow agrees with brute force under NetERP, NetEDR and SURS") {
    for (seed <- 0 until 12) {
      val (q, d) = bigNodePair(seed * 61 + 4)
      val (qe, de) = bigEdgePair(seed * 67 + 8)
      for ((fn, a, b) <- Seq((NetDist.netErp(big, center = q.head), q, d), (NetDist.netEdr(big, eps = 1.2), q, d),
                             (NetDist.surs(big), qe, de))) {
        val bf = BruteForce.search(a, b, fn).dist
        val got = CMA.searchBelow(a, b, fn, bf + 1e-9)
        assert(got.nonEmpty, fn.name)
        TestGen.assertSameDist(got.get.dist, bf)
        assert(CMA.searchBelow(a, b, fn, bf - 1e-9).isEmpty, fn.name)
      }
    }
  }

  test("row kernel == fused kernel under NetERP when the gap node heads the query (a fresh-start window wins)") {
    for (seed <- 0 until 20) {
      val r = new scala.util.Random(seed)
      val d = big.walk(r.nextInt(big.nNodes), 20 + r.nextInt(20), seed)
      val from = 3 + r.nextInt(10)
      val gap = (0 until big.nNodes).filterNot(d.contains).maxBy(v => big.dist(v, d(from)))
      // The gap node costs nothing to delete and the tail matches d exactly,
      // so the optimum is 0 only through the fresh start at d[from + 1].
      val q = ids(gap +: d.slice(from, from + 2 + r.nextInt(6)))
      val got = assertKernelsAgree(q, ids(d), NetDist.netErp(big, center = gap))
      assert(got.dist == 0.0 && got.start > 1, s"seed $seed: $got")
    }
  }

  test("row kernel == fused kernel on single-node queries and single-node data") {
    val r = new scala.util.Random(3)
    val fns = Seq(NetDist.netErp(big, center = 140), NetDist.netEdr(big, eps = 1.2), NetDist.surs(big))
    for (fn <- fns; _ <- 0 until 15) {
      val universe = if (fn.name == "SURS") big.edges.length else big.nNodes
      def one() = ids(Array(universe - 1 - r.nextInt(universe / 2)))
      val long = ids(Array.fill(1 + r.nextInt(20))(r.nextInt(universe)))
      assertKernelsAgree(one(), long, fn)
      assertKernelsAgree(long, one(), fn)
      assertKernelsAgree(one(), one(), fn)
    }
  }

  test("CMA == brute force under NetERP, NetEDR and SURS on the 169-node grid") {
    for (seed <- 0 until 12) {
      val (q, d) = bigNodePair(seed * 41 + 9)
      val (qe, de) = bigEdgePair(seed * 43 + 2)
      for ((fn, a, b) <- Seq((NetDist.netErp(big, center = q.head), q, d), (NetDist.netErp(big, center = 150), q, d),
                             (NetDist.netEdr(big, eps = 1.2), q, d), (NetDist.surs(big), qe, de)))
        TestGen.assertSameDist(CMA.search(a, b, fn).dist, BruteForce.search(a, b, fn).dist)
    }
  }

  // --- Appendix-D distance functions: CMA remains exact ---
  private def nodeWalkPair(seed: Int): (IndexedSeq[Int], IndexedSeq[Int]) = {
    val r = new scala.util.Random(seed)
    val d = net.walk(r.nextInt(net.nNodes), 4 + r.nextInt(10), seed).toIndexedSeq
    val q =
      if (r.nextBoolean() && d.length > 3) d.slice(1, 1 + math.min(4, d.length - 1))
      else net.walk(r.nextInt(net.nNodes), 1 + r.nextInt(4), seed + 1).toIndexedSeq
    (q, d)
  }

  for (seed <- 0 until 10)
    test(s"CMA == brute force under NetERP [seed=$seed]") {
      val fn = NetDist.netErp(net, center = 12)
      val (q, d) = nodeWalkPair(seed * 71 + 1)
      val cm = CMA.search(q, d, fn)
      TestGen.assertSameDist(cm.dist, BruteForce.search(q, d, fn).dist)
    }

  for (seed <- 0 until 10)
    test(s"CMA == brute force under NetEDR [seed=$seed]") {
      val fn = NetDist.netEdr(net, eps = 1.2)
      val (q, d) = nodeWalkPair(seed * 73 + 2)
      val cm = CMA.search(q, d, fn)
      TestGen.assertSameDist(cm.dist, BruteForce.search(q, d, fn).dist)
    }

  for (seed <- 0 until 10)
    test(s"CMA == brute force under SURS [seed=$seed]") {
      val fn = NetDist.surs(net)
      val r = new scala.util.Random(seed * 79 + 3)
      val d = net.walkEdges(net.walk(r.nextInt(net.nNodes), 5 + r.nextInt(8), seed)).toIndexedSeq
      val q = net.walkEdges(net.walk(r.nextInt(net.nNodes), 2 + r.nextInt(4), seed + 5)).toIndexedSeq
      if (q.nonEmpty && d.nonEmpty) {
        val cm = CMA.search(q, d, fn)
        TestGen.assertSameDist(cm.dist, BruteForce.search(q, d, fn).dist)
      }
    }

  test("NetEDR distance of a walk with itself is 0 via CMA") {
    val d = net.walk(3, 8, seed = 6).toIndexedSeq
    val fn = NetDist.netEdr(net, eps = 0.1)
    val r = CMA.search(d, d, fn)
    assert(r.dist == 0.0)
  }

  test("SURS substitution cost is the sum of both edge weights") {
    val fn = NetDist.surs(net)
    val WedFn(_, c) = fn
    val w = net.edges.map(_._3)
    assert(c.sub(0, 0) == 0.0)
    TestGen.assertSameDist(c.sub(0, 1), w(0) + w(1))
    TestGen.assertSameDist(c.del(2), w(2))
    TestGen.assertSameDist(c.ins(3), w(3))
  }
}
