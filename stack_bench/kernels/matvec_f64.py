@mdh( out( w = Buffer[fp64] ),
      inp( M = Buffer[fp64], v = Buffer[fp64] ),
      combine_ops( cc, pw(add) ) )
def matvec_f64(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
