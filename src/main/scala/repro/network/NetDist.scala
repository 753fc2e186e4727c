package repro.network

import repro.core.{RowCosts, WedFn}

/** The Appendix-D road-network distance functions, all WED instances over
  * node-id (NetERP/NetEDR) or edge-id (SURS) sequences. Their `sub` is a
  * lookup (a cached Dijkstra row, the edge weights), so each is a
  * [[RowCosts]]: CMA gathers a DP row of `sub` costs per query point.
  */
object NetDist {

  /** NetERP: ERP with road-network distances; `center` is the fixed gap node. */
  def netErp(net: RoadNetwork, center: Int): WedFn[Int] =
    WedFn("NetERP", new RowCosts {
      def sub(a: Int, b: Int): Double = net.dist(a, b)
      def del(a: Int): Double = net.dist(a, center)
      def ins(b: Int): Double = net.dist(b, center)
      def subRow(a: Int, ds: Array[Int], out: Array[Double]): Unit = {
        val row = net.row(a)
        var j = 0
        while (j < ds.length) { out(j + 1) = row(ds(j)); j += 1 }
      }
    })

  /** NetEDR: unit-cost edit distance over network nodes (free sub iff the
    * network distance is within `eps`).
    */
  def netEdr(net: RoadNetwork, eps: Double): WedFn[Int] =
    WedFn("NetEDR", new RowCosts {
      def sub(a: Int, b: Int): Double = if (a == b || net.dist(a, b) <= eps) 0.0 else 1.0
      def del(a: Int): Double = 1.0
      def ins(b: Int): Double = 1.0
      def subRow(a: Int, ds: Array[Int], out: Array[Double]): Unit = {
        val row = net.row(a)
        var j = 0
        while (j < ds.length) { val b = ds(j); out(j + 1) = if (a == b || row(b) <= eps) 0.0 else 1.0; j += 1 }
      }
    })

  /** SURS (Koide et al. [12]): trajectories are edge sequences; indel costs
    * the edge weight, substitution the sum of both weights (0 for the same
    * edge).
    */
  def surs(net: RoadNetwork): WedFn[Int] = {
    val w = net.edges.map(_._3)
    WedFn("SURS", new RowCosts {
      def sub(a: Int, b: Int): Double = if (a == b) 0.0 else w(a) + w(b)
      def del(a: Int): Double = w(a)
      def ins(b: Int): Double = w(b)
      def subRow(a: Int, ds: Array[Int], out: Array[Double]): Unit = {
        val wa = w(a)
        var j = 0
        while (j < ds.length) { val b = ds(j); out(j + 1) = if (a == b) 0.0 else wa + w(b); j += 1 }
      }
    })
  }
}
