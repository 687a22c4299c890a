package repro.core

/** One Dask-means assignment pass (the body of Algorithm 1's Assign),
  * shared by the serial [[DaskMeans]] loop and the per-partition operator
  * in `repro.spark.DistributedDaskMeans`.
  */
object DaskAssign {

  /** Run one assignment phase over `state` against `centroids`.
    *
    * @param cb     inter bounds per centroid (Eq. 3); pass null to disable
    *               the Eq. 4/5 checks (the NoInB ablation)
    * @param index  centroid index for this iteration; pass null for linear
    *               centroid scans (the NokNN ablation)
    * @return the number of point-iterations assigned in batch or kept by a
    *         bound ("pruned vectors")
    */
  def step(
      state: TreeAssignmentState,
      centroids: Array[Array[Double]],
      cb: Array[Double],
      index: CentroidIndex,
      counter: DistanceCounter,
  ): Long = {
    val k = centroids.length
    val data = state.data
    var pruned = 0L

    if (k == 1) {
      state.batchAssign(state.tree.root, 0)
      return state.tree.root.count.toLong
    }

    val nn = new KMeans.Nearest

    def assignPoint(p: Int, ub: Double): Unit = {
      val prev = state.assignments(p)
      var seedSq = 0.0; var seedDist = -1.0
      if (prev >= 0) {
        seedSq = counter.dist2(data(p), centroids(prev)); seedDist = math.sqrt(seedSq)
        if (cb != null && seedDist < cb(prev) / 2) { pruned += 1; return } // Eq. 4
      }
      val n1 =
        if (index != null) index.nn1(data(p), ub, prev, seedDist)._1
        else KMeans.nearest(data(p), centroids, counter, nn, prev, seedSq).i1
      state.assignPoint(p, n1)
    }

    def assignNode(node: BallNode, ub: Double): Unit = {
      val prev = if (node.wholly) node.assignedCluster else -1
      var seedSq = 0.0; var seedDist = -1.0
      if (prev >= 0) {
        seedSq = counter.dist2(node.pivot, centroids(prev)); seedDist = math.sqrt(seedSq)
        if (cb != null && seedDist + node.radius < cb(prev) / 2) { // Eq. 5
          pruned += node.count
          return
        }
      }
      val (n1, d1, d2) =
        if (index != null) { val b = index.nn2(node.pivot, ub, prev, seedDist); (b.i1, b.d1, b.d2) }
        else { KMeans.nearest(node.pivot, centroids, counter, nn, prev, seedSq); (nn.i1, nn.d1, nn.d2) }
      if (d2 - d1 > 2 * node.radius) { // Eq. 6
        state.batchAssign(node, n1)
        pruned += node.count
      } else if (node.isLeaf) {
        state.pushDown(node)()
        var i = 0
        while (i < node.points.length) { assignPoint(node.points(i), d1 + node.radius); i += 1 }
      } else {
        state.pushDown(node)()
        val childUb = d2 + node.radius // Eq. 7: inherited bound
        assignNode(node.left, childUb)
        assignNode(node.right, childUb)
      }
    }

    assignNode(state.tree.root, Double.PositiveInfinity)
    pruned
  }

  /** Inter bounds cb[j] for all centroids via bounded 2-NN over the
    * centroid index (Algorithm 1 lines 6–9). `prevCb`/`drifts` feed the
    * Eq. 9 upper bound; pass `first = true` on the first iteration.
    */
  def interBounds(
      centroids: Array[Array[Double]],
      index: CentroidIndex,
      first: Boolean,
      prevCb: Array[Double],
      drifts: Array[Double],
      counter: DistanceCounter,
  ): Array[Double] = {
    val k = centroids.length
    val cb = new Array[Double](k)
    if (k == 1) { cb(0) = Double.PositiveInfinity; return cb }
    if (index != null) {
      val maxDrift = KMeans.maxDrift(drifts)
      var j = 0
      while (j < k) {
        val ub = if (first) Double.PositiveInfinity else prevCb(j) + drifts(j) + maxDrift // Eq. 9
        cb(j) = index.nn2(centroids(j), ub, seedId = j, seedDist = 0.0).d2
        j += 1
      }
    } else {
      val nn = new KMeans.Nearest
      var j = 0
      while (j < k) { cb(j) = KMeans.nearestOther(j, centroids, counter, nn); j += 1 }
    }
    cb
  }
}
