@mdh( out( res = Buffer[fp32] ),
      inp( T2 = Buffer[fp32], V = Buffer[fp32] ),
      combine_ops( cc, cc, cc, cc, cc, cc, pw(add) ) )
def ccsdt(res, T2, V):
    for a in range(A):
        for b in range(B):
            for c in range(C):
                for d in range(D):
                    for e in range(E):
                        for f in range(F):
                            for k in range(K):
                                res[a, b, c, d, e, f] = T2[a, b, c, k] * V[k, d, e, f]
