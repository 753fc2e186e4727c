package repro.network

import repro.core.Point

import java.util.concurrent.atomic.AtomicReferenceArray

import scala.collection.mutable
import scala.util.Random

/** Road-network substrate for the Appendix-D distance functions (NetERP,
  * NetEDR, SURS). The paper converts its GPS data to a road network with
  * RoutingKit; lacking that, we build a jittered grid graph (DESIGN.md §5) —
  * any positively-weighted graph exercises the same code paths.
  *
  * Shortest-path distances come from Dijkstra with per-source memoization
  * (the appendix notes Net* functions pay exactly this shortest-path cost).
  * The memo is one slot per source node, read and written without a lock,
  * so concurrent searches share it.
  */
final class RoadNetwork(val xs: Array[Double], val ys: Array[Double],
                        val adj: Array[Array[(Int, Double)]]) extends Serializable {

  val nNodes: Int = xs.length

  /** Directed edge list (u, v, w) — SURS trajectories are edge sequences. */
  lazy val edges: Array[(Int, Int, Double)] =
    adj.zipWithIndex.flatMap { case (ns, u) => ns.map { case (v, w) => (u, v, w) } }

  /** Id in [[edges]] of each node's first out-edge: prefix sums of `adj` lengths. */
  private lazy val edgeOffset: Array[Int] = adj.scanLeft(0)(_ + _.length)

  /** Dijkstra row of each source node, `null` until first asked for. */
  @transient private lazy val spRows = new AtomicReferenceArray[Array[Double]](nNodes)

  /** Single-source shortest-path distances (uncached). */
  def dijkstra(src: Int): Array[Double] = {
    val dist = Array.fill(nNodes)(Double.PositiveInfinity)
    dist(src) = 0.0
    val pq = new mutable.PriorityQueue[(Double, Int)]()(Ordering.by[(Double, Int), Double](_._1).reverse)
    pq.enqueue((0.0, src))
    while (pq.nonEmpty) {
      val (du, u) = pq.dequeue()
      if (du <= dist(u)) {
        val ns = adj(u)
        var k = 0
        while (k < ns.length) {
          val (v, w) = ns(k)
          if (du + w < dist(v)) { dist(v) = du + w; pq.enqueue((du + w, v)) }
          k += 1
        }
      }
    }
    dist
  }

  /** Shortest-path distances from `a` to every node, cached per source.
    * Threads that miss the same row at once each run `dijkstra(a)` and store
    * equal rows, so no lock is needed; at most `nNodes` rows are ever held.
    * The row is shared: callers must not write to it.
    */
  def row(a: Int): Array[Double] = {
    var r = spRows.get(a)
    if (r == null) { r = dijkstra(a); spRows.set(a, r) }
    r
  }

  /** Network distance from `a` to `b`, read from `a`'s cached [[row]]. */
  def dist(a: Int, b: Int): Double = row(a)(b)

  /** Nearest node to a planar point (linear scan — networks here are small). */
  def nearestNode(p: Point): Int = {
    var best = 0; var bd = Double.PositiveInfinity
    var v = 0
    while (v < nNodes) {
      val dx = xs(v) - p.x; val dy = ys(v) - p.y
      val d2 = dx * dx + dy * dy
      if (d2 < bd) { bd = d2; best = v }
      v += 1
    }
    best
  }

  /** Deterministic random walk of `len` nodes starting from `src`, avoiding
    * immediate backtracking when possible. Returns node ids.
    */
  def walk(src: Int, len: Int, seed: Long): Array[Int] = {
    val r = new Random(seed)
    val out = new Array[Int](len)
    var cur = src; var prev = -1
    var k = 0
    while (k < len) {
      out(k) = cur
      val ns = adj(cur)
      if (ns.nonEmpty) {
        val choices = ns.filter(_._1 != prev)
        val (nxt, _) = if (choices.nonEmpty) choices(r.nextInt(choices.length)) else ns(r.nextInt(ns.length))
        prev = cur; cur = nxt
      }
      k += 1
    }
    out
  }

  /** Edge-id sequence of a node walk (index into [[edges]]); consecutive
    * nodes must be adjacent (true for [[walk]] outputs on connected graphs),
    * non-adjacent steps are skipped. Parallel edges map to the last one.
    */
  def walkEdges(nodes: Array[Int]): Array[Int] = {
    val out = Array.newBuilder[Int]
    var k = 1
    while (k < nodes.length) {
      val u = nodes(k - 1); val v = nodes(k)
      val e = adj(u).lastIndexWhere(_._1 == v)
      if (e >= 0) out += edgeOffset(u) + e
      k += 1
    }
    out.result()
  }
}

object RoadNetwork {

  /** `w × h` grid graph with cell spacing `cell` km; node positions and edge
    * weights are jittered deterministically in `seed`. Bidirectional edges.
    */
  def grid(w: Int, h: Int, cell: Double, seed: Long): RoadNetwork = {
    val r = new Random(seed)
    val n = w * h
    val xs = new Array[Double](n); val ys = new Array[Double](n)
    for (i <- 0 until w; j <- 0 until h) {
      val v = i * h + j
      xs(v) = i * cell + (r.nextDouble() - 0.5) * cell * 0.3
      ys(v) = j * cell + (r.nextDouble() - 0.5) * cell * 0.3
    }
    val adjB = Array.fill(n)(mutable.ArrayBuffer.empty[(Int, Double)])
    def link(u: Int, v: Int): Unit = {
      val dx = xs(u) - xs(v); val dy = ys(u) - ys(v)
      val wgt = math.sqrt(dx * dx + dy * dy) * (1.0 + r.nextDouble() * 0.2)
      adjB(u) += ((v, wgt)); adjB(v) += ((u, wgt))
    }
    for (i <- 0 until w; j <- 0 until h) {
      val v = i * h + j
      if (i + 1 < w) link(v, (i + 1) * h + j)
      if (j + 1 < h) link(v, i * h + j + 1)
    }
    new RoadNetwork(xs, ys, adjB.map(_.toArray))
  }
}
