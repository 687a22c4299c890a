package repro.baselines

import repro.core._
import repro.estimator.MemoryEstimator

/** Dual-tree k-means [50] (Curtin-style, simplified): Hamerly's single
  * upper/lower bound lifted onto a Ball-tree over the points, with bounds
  * maintained for *both* nodes and points across iterations (adjusted by
  * centroid drifts), and whole nodes assigned in batch. Unlike Dask-means
  * it has no centroid index: a node that fails its bound check scans all k
  * centroids — the O(k) behaviour the paper criticises at large k.
  *
  * Simplification vs [50]: centroid grouping for batch centroid pruning is
  * omitted (the node/point bound structure, batch assignment, and
  * memory profile — two bounds per node and per point — are preserved).
  */
final class DualTree(val leafCapacity: Int = 8) extends KMeansAlgo {
  override def name: String = "Dual-tree"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long =
    MemoryEstimator.indexFloats(n, leafCapacity.toLong, d) + 3L * (4 * n / leafCapacity) + 4L * n

  override def run(
      data: Array[Array[Double]],
      k: Int,
      maxIters: Int,
      init: Array[Array[Double]],
  ): KMeansResult = {
    require(maxIters >= 1, "need at least one iteration")
    val n = data.length
    val rec = new RunRecorder
    val counter = new DistanceCounter
    var pruned = 0L

    val tree = BallTree.build(data, leafCapacity)
    val state = new TreeAssignmentState(data, tree, k)
    val nodeUb = new Array[Double](tree.nodeCount)
    val nodeLb = new Array[Double](tree.nodeCount)
    val nodeVer = new Array[Int](tree.nodeCount)
    val u = new Array[Double](n)
    val l = new Array[Double](n)
    val pVer = new Array[Int](n)
    rec.markInitDone()

    var centroids = init.map(_.clone())
    val drifts = new Array[Double](k)
    // cumulative drift per centroid by version; version v = centroids after
    // v refinements, cum(v)(j) = Σ_{τ≤v} δ_τ(j)
    val cum = scala.collection.mutable.ArrayBuffer(new Array[Double](k))
    val cumMax = scala.collection.mutable.ArrayBuffer(0.0)
    val nn = new KMeans.Nearest

    var it = 0
    var converged = false

    while (it < maxIters && !converged) {
      val now = it // current centroid version

      def adjUb(ub: Double, c: Int, ver: Int): Double = ub + (cum(now)(c) - cum(ver)(c))
      def adjLb(lb: Double, ver: Int): Double = lb - (cumMax(now) - cumMax(ver))

      def visitLeafPoint(p: Int, node: BallNode): Unit = {
        val a0 = state.assignments(p)
        if (a0 >= 0) {
          u(p) = adjUb(u(p), a0, pVer(p)); l(p) = adjLb(l(p), pVer(p)); pVer(p) = now
          if (u(p) <= l(p)) { pruned += 1; return }
          u(p) = counter.dist(data(p), centroids(a0)) // tighten
          if (u(p) <= l(p)) { pruned += 1; return }
        }
        KMeans.nearest(data(p), centroids, counter, nn)
        state.assignPoint(p, nn.i1)
        u(p) = nn.d1; l(p) = nn.d2; pVer(p) = now
      }

      def visit(node: BallNode): Unit = {
        val id = node.id
        if (node.wholly && node.assignedCluster >= 0) {
          val c = node.assignedCluster
          nodeUb(id) = adjUb(nodeUb(id), c, nodeVer(id))
          nodeLb(id) = adjLb(nodeLb(id), nodeVer(id))
          nodeVer(id) = now
          if (nodeUb(id) + node.radius < nodeLb(id) - node.radius) {
            pruned += node.count
            return // whole node keeps its assignment
          }
        }
        // Scan all k centroids, holding the assigned one's distance for the
        // bounds below.
        val a0 = if (node.wholly) node.assignedCluster else -1
        val aSq = if (a0 >= 0) counter.dist2(node.pivot, centroids(a0)) else 0.0
        KMeans.nearest(node.pivot, centroids, counter, nn, a0, aSq)
        if (nn.d2 - nn.d1 > 2 * node.radius) {
          state.batchAssign(node, nn.i1)
          nodeUb(id) = nn.d1; nodeLb(id) = nn.d2; nodeVer(id) = now
          pruned += node.count
          return
        }
        if (a0 >= 0) {
          // keep the marker's bounds fresh for the push-down below: the
          // assigned distance and the nearest of the other centroids
          nodeUb(id) = math.sqrt(aSq); nodeLb(id) = if (nn.i1 == a0) nn.d2 else nn.d1; nodeVer(id) = now
        }
        if (node.isLeaf) {
          state.pushDown(node)(onPoint = p => {
            u(p) = nodeUb(id) + node.radius
            l(p) = nodeLb(id) - node.radius
            pVer(p) = now
          })
          var i = 0
          while (i < node.points.length) { visitLeafPoint(node.points(i), node); i += 1 }
        } else {
          state.pushDown(node)(onChild = ch => {
            nodeUb(ch.id) = nodeUb(id) + node.radius
            nodeLb(ch.id) = nodeLb(id) - node.radius
            nodeVer(ch.id) = now
          })
          visit(node.left)
          visit(node.right)
        }
      }

      if (k == 1) { state.batchAssign(tree.root, 0); pruned += n }
      else visit(tree.root)

      centroids = state.refine(centroids, drifts)
      val nextCum = new Array[Double](k)
      var j = 0
      while (j < k) { nextCum(j) = cum(now)(j) + drifts(j); j += 1 }
      cum += nextCum
      cumMax += (cumMax(now) + KMeans.maxDrift(drifts))
      it += 1
      converged = KMeans.maxDrift(drifts) <= KMeans.Eps
      rec.markIterDone()
    }

    KMeansResult(centroids, state.materialize(), it, rec.initMs, rec.iterMs, counter.count, pruned,
      extraMemoryFloats(n.toLong, k.toLong, data(0).length.toLong))
  }
}
